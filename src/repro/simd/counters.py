"""Operation counters.

An :class:`OpCounter` tallies what a kernel *did*: vector loads/stores,
gathers, FMAs, divides and scalar ops, plus bytes moved per stream.
Kernels in :mod:`repro.kernels` fill these either analytically (exact
closed forms from the storage structure) or by instrumented execution
through :class:`~repro.simd.engine.VectorEngine`; tests assert the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class OpCounter:
    """Tally of operations and memory traffic for one kernel run.

    Vector op fields count *logical* vector operations of width
    ``bsize``; :meth:`cycles_on` expands them to ISA instructions.
    """

    bsize: int = 1
    # Logical vector operations (width = bsize).
    vload: int = 0
    vstore: int = 0
    vgather: int = 0
    vscatter: int = 0
    vfma: int = 0
    vmul: int = 0
    vadd: int = 0
    vdiv: int = 0
    # Scalar operations.
    sload: int = 0
    sstore: int = 0
    sflop: int = 0
    sdiv: int = 0
    # Memory traffic in bytes (matrix data + indices + vectors).
    bytes_values: int = 0
    bytes_index: int = 0
    bytes_vector: int = 0
    # Traffic issued through gathers / irregular accesses; subject to
    # cache-line over-fetch in the machine model (the cost DBSR's
    # contiguous loads avoid, SIII-D).
    bytes_gathered: int = 0

    def merge(self, other: "OpCounter") -> "OpCounter":
        """Accumulate ``other`` into ``self`` (bsize must match)."""
        if other.bsize != self.bsize and other.bsize != 1 and self.bsize != 1:
            raise ValueError("cannot merge counters of different bsize")
        for f in fields(self):
            if f.name == "bsize":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def scaled(self, factor: float) -> "OpCounter":
        """Return a copy with every tally multiplied by ``factor``."""
        out = OpCounter(bsize=self.bsize)
        for f in fields(self):
            if f.name == "bsize":
                continue
            setattr(out, f.name, int(round(getattr(self, f.name) * factor)))
        return out

    @property
    def total_bytes(self) -> int:
        return (self.bytes_values + self.bytes_index + self.bytes_vector
                + self.bytes_gathered)

    @property
    def total_vector_ops(self) -> int:
        return (self.vload + self.vstore + self.vgather + self.vscatter
                + self.vfma + self.vmul + self.vadd + self.vdiv)

    @property
    def total_scalar_ops(self) -> int:
        return self.sload + self.sstore + self.sflop + self.sdiv

    def flops(self, dtype_lanes: int = 1) -> int:
        """Floating point operations performed (FMA = 2 flops)."""
        vec = (2 * self.vfma + self.vmul + self.vadd + self.vdiv)
        return vec * self.bsize + self.sflop + self.sdiv

    def cycles_on(self, isa, dtype_bytes: int = 8,
                  use_gather_hw: bool = True) -> float:
        """Estimated compute cycles on ``isa``.

        Parameters
        ----------
        isa:
            A :class:`~repro.simd.isa.VectorISA`.
        dtype_bytes:
            Element size (8 = float64, 4 = float32); halving it doubles
            lanes per register, which is why the paper's f32 runs gain
            more (§V-F).
        use_gather_hw:
            When ``False``, gathers are expanded into scalar loads plus
            inserts (the pre-gather code path of Fig. 8).
        """
        lanes = max(1, isa.bits // (dtype_bytes * 8))
        expand = max(1, (self.bsize + lanes - 1) // lanes)
        cyc = 0.0
        cyc += self.vload * isa.load_cost * expand
        cyc += self.vstore * isa.store_cost * expand
        cyc += self.vfma * isa.fma_cost * expand
        cyc += (self.vmul + self.vadd) * isa.fma_cost * expand
        cyc += self.vdiv * isa.div_cost * expand
        gather_lane_cost = (isa.gather_cost_per_lane if use_gather_hw
                            else 2.0 * isa.scalar_op_cost)
        cyc += self.vgather * gather_lane_cost * self.bsize
        cyc += self.vscatter * gather_lane_cost * self.bsize
        cyc += (self.sload + self.sstore + self.sflop) * isa.scalar_op_cost
        cyc += self.sdiv * isa.div_cost
        return cyc / isa.issue_width


def counter_to_dict(c: OpCounter) -> dict:
    """Serialize an :class:`OpCounter` (op mix + per-stream bytes)."""
    return {
        "bsize": c.bsize,
        "ops": {
            "vload": c.vload, "vstore": c.vstore,
            "vgather": c.vgather, "vscatter": c.vscatter,
            "vfma": c.vfma, "vmul": c.vmul, "vadd": c.vadd,
            "vdiv": c.vdiv,
            "sload": c.sload, "sstore": c.sstore,
            "sflop": c.sflop, "sdiv": c.sdiv,
        },
        "bytes": {
            "values": c.bytes_values,
            "index": c.bytes_index,
            "vector": c.bytes_vector,
            "gathered": c.bytes_gathered,
            "total": c.total_bytes,
        },
        "flops": c.flops(),
    }
