"""Verification and search toolkit for invariant measures of
translation-invariant interacting particle systems.

Exact finite criteria decide whether a Markov law, product measure or cyclic
chain law is preserved by a local jump dynamics; search routines recover
candidate laws from the dynamics; explicit finite-space generators provide
an independent brute-force oracle for every verdict.
"""

from .core import (Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel,
                   StationaryLaw, product_law)
from .criteria import (CriterionContext, CriterionReport, LocalBalanceTable,
                       PotentialCertificate, check_markov_cycle, check_markov_line,
                       check_markov_small_cycles, check_product_line, cycle_balance,
                       equivalence_panel, line_balance, markov_context, product_context,
                       restrict_support, symmetrize, z_table)
from .linalg import EigenPair, perron_pair, solve_linear, stationary_distribution
from .oracle import (CycleSpace, SegmentSpace, TorusSpace, absorbing_analysis,
                     absorbing_exclusion, build_generator, gibbs_measure,
                     product_measure, stationarity_residual)
from .search import (candidate_kernels, find_markov, find_product,
                     kernel_from_ratios, solve_cycle3_system, triple_from_kernel)

__version__ = "0.1.0"
