"""Energy accounting.

The meter accumulates picojoules per category as units execute; leakage is
integrated over the final latency when the report is assembled.  Categories
mirror the hardware inventory: crossbar reads, DACs, ADCs, vector ALU,
scalar ALU, local memory, global memory, NoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyMeter", "CATEGORIES"]

CATEGORIES = ("xbar", "dac", "adc", "vector", "scalar",
              "local_mem", "global_mem", "noc", "leakage")


@dataclass
class EnergyMeter:
    """Accumulates dynamic energy per category (picojoules)."""

    pj: dict[str, float] = field(default_factory=lambda: {c: 0.0 for c in CATEGORIES})

    def add(self, category: str, picojoules: float) -> None:
        self.pj[category] += picojoules

    # The per-category charges below update ``pj`` directly rather than
    # going through :meth:`add`.  ``mvm`` / ``vector_*`` / ``scalar_op`` /
    # ``local_mem`` are the reference the per-instruction cost table
    # (:func:`repro.arch.units.instruction_costs`) is tested against; the
    # simulator charges those terms from the table.  ``global_mem`` and
    # ``noc_traffic`` are charged live, as the traffic moves.

    def mvm(self, energy_cfg, rows: int, cols: int, dac_phases: int,
            count: int) -> None:
        """Charge one MVM instruction: ``count`` input vectors through a
        group of ``rows`` x ``cols`` active cells."""
        pj = self.pj
        pj["xbar"] += energy_cfg.xbar_read_pj_per_cell * rows * cols * count
        pj["dac"] += energy_cfg.dac_pj_per_conversion * rows * dac_phases * count
        pj["adc"] += energy_cfg.adc_pj_per_sample * cols * dac_phases * count

    def vector_op(self, energy_cfg, length: int, mem_bytes: int) -> None:
        pj = self.pj
        pj["vector"] += energy_cfg.vector_pj_per_element * length
        pj["local_mem"] += energy_cfg.local_mem_pj_per_byte * mem_bytes

    def vector_special_op(self, energy_cfg, length: int, mem_bytes: int) -> None:
        """Transcendental-heavy vector op (softmax / layernorm / gelu)."""
        pj = self.pj
        pj["vector"] += energy_cfg.vector_special_pj_per_element * length
        pj["local_mem"] += energy_cfg.local_mem_pj_per_byte * mem_bytes

    def vector_macs(self, energy_cfg, macs: int, mem_bytes: int) -> None:
        """Dynamic matmul on the vector unit: ``macs`` multiply-accumulates."""
        pj = self.pj
        pj["vector"] += energy_cfg.vector_mac_pj * macs
        pj["local_mem"] += energy_cfg.local_mem_pj_per_byte * mem_bytes

    def scalar_op(self, energy_cfg) -> None:
        self.pj["scalar"] += energy_cfg.scalar_pj_per_op

    def local_mem(self, energy_cfg, nbytes: int) -> None:
        self.pj["local_mem"] += energy_cfg.local_mem_pj_per_byte * nbytes

    def global_mem(self, energy_cfg, nbytes: int) -> None:
        self.pj["global_mem"] += energy_cfg.global_mem_pj_per_byte * nbytes

    def noc_traffic(self, energy_cfg, nbytes: int, hops: int) -> None:
        self.pj["noc"] += energy_cfg.noc_pj_per_byte_hop * nbytes * hops

    def add_leakage(self, energy_cfg, n_cores_used: int, seconds: float) -> None:
        """Integrate static power over the run (charged once, at the end)."""
        milliwatts = energy_cfg.chip_leakage_mw + energy_cfg.core_leakage_mw * n_cores_used
        self.add("leakage", milliwatts * 1e-3 * seconds * 1e12)

    def to_dict(self) -> dict[str, float]:
        return dict(self.pj)
