"""FPGA configuration: flash images, golden image, full/partial reconfig.

Paper §II: a 256 Mb flash holds "the known-good golden image for the FPGA
that is loaded on power on, as well as one application image."  Full
reconfiguration "briefly brings down this network link"; when traffic
cannot pause, "partial reconfiguration permits packets to be passed
through even during reconfiguration of the role."  A wedged FPGA is
recovered by power-cycling the server through the side-channel management
port, which reloads the golden image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim import Environment, Event

#: Full-device reconfiguration time (Stratix V-class, from flash/PCIe).
FULL_RECONFIG_SECONDS = 1.0
#: Partial reconfiguration of a role region.
PARTIAL_RECONFIG_SECONDS = 0.25
#: Power cycle via the management side-channel (server reboot not modeled;
#: this is FPGA-image recovery time only).
POWER_CYCLE_SECONDS = 10.0


@dataclass(frozen=True)
class Image:
    """A bitstream: a named image with a role identifier."""

    name: str
    role_name: str
    #: Golden images carry no application role, only bridge/bypass.
    is_golden: bool = False


GOLDEN_IMAGE = Image(name="golden", role_name="bypass", is_golden=True)


class ConfigurationError(Exception):
    """Raised on invalid configuration transitions."""


class ConfigurationManager:
    """Per-FPGA configuration state machine.

    Tracks the two flash slots (golden + one application image), which
    image is live, and whether the network datapath is up.  Callbacks let
    the shell react to link-down/link-up (the bridge drops packets while
    the link is down during full reconfiguration).
    """

    def __init__(self, env: Environment,
                 application_image: Optional[Image] = None):
        self.env = env
        self.flash_golden: Image = GOLDEN_IMAGE
        self.flash_application: Optional[Image] = application_image
        self.live_image: Image = GOLDEN_IMAGE
        self.reconfiguring = False
        self.link_up = True
        self.full_reconfigs = 0
        self.partial_reconfigs = 0
        self.power_cycles = 0
        self.on_link_change: Optional[Callable[[bool], None]] = None
        self._idle_waiters: List[Event] = []

    # ------------------------------------------------------------------
    def write_application_image(self, image: Image) -> None:
        """Flash the single application slot (golden is never overwritten
        by policy)."""
        if image.is_golden:
            raise ConfigurationError(
                "policy: the golden image slot is never rewritten in situ")
        self.flash_application = image

    def until_idle(self) -> Event:
        """Event that succeeds once no reconfiguration is in progress
        (at once if none is)."""
        event = self.env.event()
        if self.reconfiguring:
            self._idle_waiters.append(event)
        else:
            event.succeed()
        return event

    def _finish(self) -> None:
        self.reconfiguring = False
        waiters, self._idle_waiters = self._idle_waiters, []
        for event in waiters:
            event.succeed()

    def _set_link(self, up: bool) -> None:
        if self.link_up != up:
            self.link_up = up
            if self.on_link_change is not None:
                self.on_link_change(up)

    def full_reconfigure(self, image: Optional[Image] = None):
        """Process: load an image with the network link briefly down.

        Yields until complete.  ``image`` defaults to the application slot.
        """
        if self.reconfiguring:
            raise ConfigurationError("reconfiguration already in progress")
        target = image or self.flash_application
        if target is None:
            raise ConfigurationError("no application image in flash")
        self.reconfiguring = True
        self._set_link(False)
        yield self.env.timeout(FULL_RECONFIG_SECONDS)
        self.live_image = target
        self.full_reconfigs += 1
        self._finish()
        self._set_link(True)

    def partial_reconfigure(self, image: Image):
        """Process: swap only the role region; the bridge keeps passing
        packets (link stays up)."""
        if self.reconfiguring:
            raise ConfigurationError("reconfiguration already in progress")
        if image.is_golden:
            raise ConfigurationError(
                "partial reconfiguration targets the role region only")
        self.reconfiguring = True
        yield self.env.timeout(PARTIAL_RECONFIG_SECONDS)
        self.live_image = image
        self.partial_reconfigs += 1
        self._finish()

    def power_cycle(self):
        """Process: management-port power cycle -> golden image loads.

        This is the §II recovery path: "power cycling the server through
        the management port will bring the FPGA back into a good
        configuration, making the server reachable via the network once
        again."
        """
        self.reconfiguring = True
        self._set_link(False)
        yield self.env.timeout(POWER_CYCLE_SECONDS)
        self.live_image = self.flash_golden
        self.power_cycles += 1
        self._finish()
        self._set_link(True)
