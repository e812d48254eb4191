"""One crash with more than three servers: every flyweight row listed once.

The flyweight scale point, N = 20 000, seed 77, the most-loaded server
crashed at 4 s and the rows counted at 20 s (``ScalePoint.unlisted`` /
``listed_twice``).  S = 3 lists every row exactly once.  S = 4 leaves
1 725 rows listed by no live cohort and S = 12 leaves 451, and nothing
brings them back: a started row never sends another connect.  The
strict xfails pin that until the owner of an orphaned row is a pure
function of the agreed view; a patch that merely hides these counts
(retry jitter, another tie-break in ``least_loaded``, a row that
re-sends its connect) flips them and must be argued for.  DESIGN §8.5
records the mechanism.
"""

import pytest

from repro.experiments.scale import run_scale_point

EARLY_CRASH = (
    "early-crash row loss: at 4 s the replicas' row ledgers still "
    "disagree on the survivors' loads, so rebalance's failure-regime "
    "partition, which gives each orphan to the least-loaded survivor by "
    "the local ledger, differs between survivors and nobody adopts some "
    "orphans (fixed by taking the owner from the agreed view, not by a "
    "retry tweak)"
)


def assert_every_row_listed_once(n_servers: int) -> None:
    point = run_scale_point(
        20_000, 1.0, duration_s=20.0, crash_at=4.0, seed=77,
        n_servers=n_servers, flyweight=True,
    )
    assert (point.unlisted, point.listed_twice) == (0, 0)


def test_three_servers_list_every_row_once_after_an_early_crash():
    assert_every_row_listed_once(3)


@pytest.mark.xfail(strict=True, reason=EARLY_CRASH)
@pytest.mark.parametrize("n_servers", [4, 12])
def test_more_servers_list_every_row_once_after_an_early_crash(n_servers):
    assert_every_row_listed_once(n_servers)
