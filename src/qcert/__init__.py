"""qcert: exact q-series arithmetic and a combinatorial counting oracle
for verifying partition-statistic congruences and identities.

Every coefficient the package computes is an integer.  It has five
layers:

* ``qcert.rings`` / ``qcert.series`` -- truncated power series in q over
  the integers (``RAT``) and over integer dual numbers, with the
  part-marking variable x carried by the ring (1, or 1 + eps), and
  Pochhammer, theta-bracket, and bilateral Appell-Lerch builders;
* ``qcert.combinatorics`` -- partitions, overpartitions, overpartition
  pairs and distinct-odd partitions: streaming enumerators, every rank /
  crank statistic, and residue tallies counted from those definitions;
* ``qcert.genfun`` -- the rank generating functions, with the rank
  variable z packed into the ints, part-count difference series (exact
  d/dx at 1 from the x = 1 inner terms), the main transformation check
  (dual numbers), and the table of closed forms they are compared
  against;
* ``qcert.verify`` -- the declarative check registry and runner;
* ``qcert.cli`` -- the ``qcert`` command-line tool.

The reference route of the tests (``tests/bruteforce.py``) adds the
rings that the package does not hold: Laurent polynomials in a formal
z, exact rationals, and honest polynomials in x.
"""

from . import combinatorics, genfun
from .combinatorics import (
    Overpartition,
    OverpartitionPair,
    crank,
    count_ones,
    dyson_rank,
    enumerate_distinct_odd,
    enumerate_overpartition_pairs,
    enumerate_overpartitions,
    enumerate_partitions,
    m2_rank_distinct_odd,
    m2_rank_overpartition,
    ov_rank,
    pair_profile,
    pair_rank,
    tally,
)
from .genfun import (
    Family,
    closed_form,
    form_ids,
    nt_diff_gf,
    rank_gf,
    thmain_check,
)
from .rings import RAT, DualScalar
from .series import (
    Monomial,
    QSeries,
    bracket_infinite,
    lerch_sum,
    mono,
    pochhammer_finite,
    pochhammer_infinite,
    series_to_json,
)
from .verify import CheckReport, CheckSpec, VerifyConfig, registry, run_all, run_check

__version__ = "0.1.0"


def clear_caches():
    """Empty every memoized result in qcert: the genfun series and the
    combinatorics counting tables."""
    genfun.clear_caches()
    combinatorics.clear_caches()
