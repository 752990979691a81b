"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.tiling import WeightTiling
from repro.graph import conv_out_hw
from repro.isa import (
    MvmInst,
    ScalarInst,
    TransferInst,
    VectorInst,
    decode,
    encode,
    ranges_overlap,
)
from repro.sim import Fifo, Simulator


# -- range algebra -------------------------------------------------------------

ranges = st.tuples(st.integers(0, 10_000), st.integers(1, 500)).map(
    lambda t: (t[0], t[0] + t[1]))


@given(ranges, ranges)
def test_overlap_is_symmetric(a, b):
    assert ranges_overlap(a, b) == ranges_overlap(b, a)


@given(ranges)
def test_range_overlaps_itself(a):
    assert ranges_overlap(a, a)


@given(ranges, ranges)
def test_disjoint_iff_ordered(a, b):
    disjoint = a[1] <= b[0] or b[1] <= a[0]
    assert ranges_overlap(a, b) == (not disjoint)


# -- instruction encoding -------------------------------------------------------

mvm_insts = st.builds(
    MvmInst,
    group=st.integers(0, 2**20 - 1),
    src=st.integers(0, 2**26 - 1),
    src_bytes=st.integers(0, 2**26 - 1),
    dst=st.integers(0, 2**26 - 1),
    dst_bytes=st.integers(0, 2**26 - 1),
    count=st.integers(1, 2**20 - 1),
)

vector_insts = st.builds(
    VectorInst,
    op=st.sampled_from(["VADD", "VRELU", "VMOV", "VMAXPOOL", "VSOFTMAX"]),
    src1=st.integers(0, 2**26 - 1),
    src2=st.integers(0, 2**26 - 1),
    dst=st.integers(0, 2**26 - 1),
    length=st.integers(0, 2**24 - 1),
    src_bytes=st.integers(0, 2**26 - 1),
    dst_bytes=st.integers(0, 2**26 - 1),
)

transfer_insts = st.builds(
    TransferInst,
    op=st.sampled_from(["SEND", "RECV", "LOAD", "STORE"]),
    peer=st.integers(0, 2**16 - 1),
    addr=st.integers(0, 2**26 - 1),
    bytes=st.integers(0, 2**26 - 1),
    flow=st.integers(0, 2**26 - 1),
    seq=st.integers(0, 2**26 - 1),
)

scalar_insts = st.builds(
    ScalarInst,
    op=st.sampled_from(["LI", "SADD", "SBNE", "SJMP", "NOP", "HALT"]),
    rd=st.integers(0, 31),
    rs1=st.integers(0, 31),
    rs2=st.integers(0, 31),
    imm=st.integers(0, 2**40 - 1),
    target=st.integers(0, 2**26 - 1),
)

any_inst = st.one_of(mvm_insts, vector_insts, transfer_insts, scalar_insts)


@given(any_inst)
def test_encode_decode_roundtrip(inst):
    again = decode(encode(inst))
    assert type(again) is type(inst)
    for field in vars(inst):
        if field in ("layer", "index"):
            continue
        assert getattr(again, field) == getattr(inst, field)


@given(any_inst)
def test_encoded_word_fits_192_bits(inst):
    assert 0 <= encode(inst) < (1 << 192)


# -- assembly -------------------------------------------------------------------

@given(any_inst)
def test_asm_roundtrip(inst):
    from repro.isa import assemble_line, disassemble_line
    again = assemble_line(disassemble_line(inst))
    assert type(again) is type(inst)
    for field in vars(inst):
        if field == "index":
            continue
        assert getattr(again, field) == getattr(inst, field)


# -- weight tiling ----------------------------------------------------------------

@given(rows=st.integers(1, 5000), cols=st.integers(1, 5000),
       xr=st.integers(16, 512), xc=st.integers(16, 512))
def test_tiling_blocks_cover_matrix_exactly(rows, cols, xr, xc):
    t = WeightTiling(rows, cols, xr, xc)
    assert sum(t.block_rows(r) for r in range(t.row_blocks)) == rows
    assert sum(t.block_cols(c) for c in range(t.col_blocks)) == cols
    assert all(1 <= t.block_rows(r) <= xr for r in range(t.row_blocks))
    assert all(1 <= t.block_cols(c) <= xc for c in range(t.col_blocks))


# -- convolution geometry ----------------------------------------------------------

@given(h=st.integers(1, 300), k=st.integers(1, 11), s=st.integers(1, 4),
       p=st.integers(0, 5))
def test_conv_output_never_exceeds_padded_input(h, k, s, p):
    if h + 2 * p < k:
        return  # window larger than padded input: builder rejects it
    oh, _ = conv_out_hw(h, h, k, s, p)
    assert 1 <= oh <= h + 2 * p


@given(h=st.integers(3, 300), k=st.integers(1, 7), p=st.integers(0, 3))
def test_stride_one_padding_same_keeps_size(h, k, p):
    if k != 2 * p + 1:
        return  # "same" geometry requires k == 2p+1
    oh, ow = conv_out_hw(h, h, k, 1, p)
    assert (oh, ow) == (h, h)


# -- tile dependence -----------------------------------------------------------------

@given(st.integers(2, 64), st.integers(1, 32))
@settings(max_examples=30)
def test_required_tile_monotone_for_random_chain(size, tile_pixels):
    from repro.compiler import build_pipeline, n_tiles, tile_interval
    from tests.conftest import build_chain_net
    pipe = build_pipeline(build_chain_net(size=max(4, size - size % 2)))
    for stage in pipe:
        for edge in stage.edges:
            producer = pipe.stage(edge.producer)
            last = last_lo = -1
            for t in range(n_tiles(stage, tile_pixels)):
                lo, req = tile_interval(stage, edge, producer, tile_pixels, t)
                assert req >= last
                assert 0 <= req < n_tiles(producer, tile_pixels)
                assert lo <= req
                assert lo >= last_lo
                last = req
                last_lo = lo


# -- simulator determinism / fifo order ----------------------------------------------

@given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
@settings(max_examples=50)
def test_fifo_preserves_order_under_random_delays(delays):
    sim = Simulator()
    fifo = Fifo(sim, 4)
    out = []

    def producer():
        for i, d in enumerate(delays):
            yield d
            yield from fifo.put(i)

    def consumer():
        for _ in delays:
            item = yield from fifo.get()
            out.append(item)
            yield 3

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert out == list(range(len(delays)))
