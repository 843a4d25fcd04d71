"""A ratchet on the gap counts of gap_counts.py: every count of a number
printed as a bound, as sampled or without a certificate may only fall,
and the number of exact ell-ledger ledgers and the sums of lo may only
rise.  The recorded values are the literals below.  A change that closes
a gap moves its literal to the new value; a change that moves one the
other way loosens the check, and must say why.  The totals they count in
stay fixed, so that a count cannot fall by dropping cases."""

from gap_counts import gap_counts

AT_MOST = {
    "ge_rows": 43,
    "ell_hi_none": 36,
    "hyper_hi_none": 28,
    "unresolved_splittings": 26,
    "sampled_septics": 3,
    "uncertified_bad_primes": 1,
}
AT_LEAST = {
    "ell_exact": 0,
    "ell_lo_sum": 37,
    "hyper_lo_sum": 86,
}
TOTALS = {
    "rows": 130,
    "ell_ledgers": 42,
    "hyper_ledgers": 28,
    "sweep_pairs": 7176,
}


def test_gap_counts_only_fall():
    counts = gap_counts()
    assert counts.keys() == AT_MOST.keys() | AT_LEAST.keys() | TOTALS.keys()
    assert {k: counts[k] for k in TOTALS} == TOTALS
    risen = {k: (counts[k], v) for k, v in AT_MOST.items() if counts[k] > v}
    fallen = {k: (counts[k], v) for k, v in AT_LEAST.items()
              if counts[k] < v}
    assert not risen, risen
    assert not fallen, fallen
