"""Default bounds of the oracle campaign.

They live in their own module, free of numpy, so that the command line
can print them in its help without importing the oracle: `classify`,
`sylow` and `tables` never enumerate a group.
"""

DEFAULT_ORDER_CAP = 20000  # largest |G(m,p,n)| the oracle enumerates
DEFAULT_MAX_M = 16  # the campaign grid: m <= DEFAULT_MAX_M ...
DEFAULT_MAX_N = 8  # ... and n <= DEFAULT_MAX_N
