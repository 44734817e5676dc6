"""Virtual organizations and grid users.

A virtual organization (VO) is "a group of consumers and producers
united in their secure use of distributed high-end computational
resources towards a common goal" (paper §1).  Users act through a VO
*proxy* — the credential sites see.  Sites grant resource quotas per
(user, VO), which the policy engine (:mod:`repro.core.policies`)
enforces on the scheduler side.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VirtualOrganization", "User"]


@dataclass(frozen=True, slots=True)
class VirtualOrganization:
    """A named VO, e.g. ``uscms`` or ``atlas``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("VO name must be non-empty")


@dataclass(frozen=True, slots=True)
class User:
    """A grid user acting under a VO proxy.

    ``priority`` is the user's standing within the VO (smaller = more
    important); remote sites may additionally relegate a proxy's
    priority, which the site model applies independently.
    """

    name: str
    vo: VirtualOrganization
    priority: int = 10

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("user name must be non-empty")

    @property
    def proxy(self) -> str:
        """The credential string presented to sites and services."""
        return f"/VO={self.vo.name}/CN={self.name}"
