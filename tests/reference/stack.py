"""The reference stack: optimised layers swapped for their slow twins.

Test-only.  Each layer's twin lives beside the layer's own differential
(``tests/simgrid/reference_local_scheduler.py`` ...) and is proven there
against random operations on that layer alone.  This module patches twins
into a *whole run*, so a scenario can be played twice — as shipped and on
the reference stack — and the outcomes compared (ROADMAP item 2).

First brick: the site batch queue.  Later twins (network, RLS index,
site views, warehouse, background arrivals) join ``patch_reference_stack``.
"""

from tests.simgrid.reference_local_scheduler import ReferenceLocalScheduler

__all__ = ["patch_reference_stack"]


def patch_reference_stack(monkeypatch) -> None:
    """Every stack built from here on runs on the slow twins."""
    # GridSite builds its batch queue from its module's global
    monkeypatch.setattr(
        "repro.simgrid.site.LocalScheduler", ReferenceLocalScheduler
    )
