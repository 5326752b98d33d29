"""Tests for robust-type chains, probe contexts and test values."""

import pytest

from repro.ftypes import test_values_for as values_for
from repro.ftypes import (
    CHAINS,
    ProbeContext,
    ROLE_CHAINS,
    chain_for_ctype,
    chain_for_role,
    type_by_name,
)
from repro.headers import parse_prototype
from repro.headers.model import pointer_to, scalar
from repro.manpages import load_corpus, manpage_for
from repro.manpages.model import ROLES
from repro.memory import Perm
from repro.runtime import SimProcess
from tests.oracles import is_readable


class TestChains:
    def test_every_chain_starts_at_rank_zero(self):
        for chain_id, chain in CHAINS.items():
            assert [rung.rank for rung in chain] == list(range(len(chain)))
            assert chain[0].check == ""  # weakest = declared type, no check

    def test_all_roles_map_to_chains(self):
        for role in ROLES:
            assert role in ROLE_CHAINS, f"role {role} has no chain"
            assert ROLE_CHAINS[role] in CHAINS

    def test_chain_for_role(self):
        assert chain_for_role("in_string")[0].chain == "cstring_in"
        with pytest.raises(KeyError):
            chain_for_role("bogus")

    def test_chain_for_ctype_fallbacks(self):
        assert chain_for_ctype(pointer_to("char", const=True))[0].chain == \
            "cstring_in"
        assert chain_for_ctype(pointer_to("char"))[0].chain == "cstring_out"
        assert chain_for_ctype(pointer_to("void"))[0].chain == "buffer_out"
        assert chain_for_ctype(pointer_to("char", depth=2))[0].chain == \
            "out_ptr"
        assert chain_for_ctype(scalar("size_t"))[0].chain == "size"
        assert chain_for_ctype(scalar("int"))[0].chain == "int_any"

    def test_type_by_name(self):
        rung = type_by_name("cstring_in", "terminated_string")
        assert rung is not None and rung.rank == 3
        assert type_by_name("cstring_in", "nope") is None

    def test_strictest_rungs_carry_checks(self):
        for chain_id, chain in CHAINS.items():
            if len(chain) > 1:
                assert chain[-1].check, f"{chain_id} strictest rung unchecked"


class TestProbeContext:
    def make_context(self, declaration, function):
        proc = SimProcess()
        proto = parse_prototype(declaration)
        ctx = ProbeContext(proc, proto, manpage_for(function))
        ctx.build_goldens()
        return proc, proto, ctx

    def test_goldens_for_strcpy_are_valid(self):
        proc, proto, ctx = self.make_context(
            "char *strcpy(char *dest, const char *src)", "strcpy")
        assert set(ctx.golden) == {"dest", "src"}
        assert proc.read_cstring(ctx.golden["src"]) == b"Hello, HEALERS!"
        assert ctx.capacities["dest"] >= 4096

    def test_required_bytes_tracks_source(self):
        proc, proto, ctx = self.make_context(
            "char *strcpy(char *dest, const char *src)", "strcpy")
        dest = proto.params[0]
        assert ctx.required_bytes(dest) == len(b"Hello, HEALERS!") + 1

    def test_memcpy_sizes_consistent(self):
        proc, proto, ctx = self.make_context(
            "void *memcpy(void *dest, const void *src, size_t n)", "memcpy")
        n = ctx.golden["n"]
        assert ctx.capacities["dest"] >= n
        assert ctx.capacities["src"] >= n

    def test_qsort_mul_sizes(self):
        proc, proto, ctx = self.make_context(
            "void qsort(void *base, size_t nmemb, size_t size, "
            "int (*compar)(const void *, const void *))", "qsort")
        assert ctx.golden["nmemb"] == 8
        assert ctx.golden["size"] == 4
        assert ctx.capacities["base"] >= 32
        proc.resolve_callback(ctx.golden["compar"])  # valid code pointer

    def test_file_golden_is_open_stream(self):
        proc, proto, ctx = self.make_context(
            "int fclose(void *stream)", "fclose")
        from repro.libc.stdio_ import stream_index_of
        index = stream_index_of(proc, ctx.golden["stream"])
        assert proc.fs.stream(index) is not None

    def test_edge_buffer_faults_one_past_end(self):
        proc = SimProcess()
        ctx = ProbeContext(proc, parse_prototype("int f(char *p)"), None)
        address = ctx.edge_buffer(8)
        proc.space.write(address, b"12345678")
        from repro.errors import SegmentationFault
        with pytest.raises(SegmentationFault):
            proc.space.write(address + 8, b"x")

    def test_edge_buffer_seed_terminated(self):
        proc = SimProcess()
        ctx = ProbeContext(proc, parse_prototype("int f(char *p)"), None)
        address = ctx.edge_buffer(16, seed=b"seed")
        assert proc.read_cstring(address) == b"seed"

    def test_unmapped_address_is_unmapped(self):
        proc = SimProcess()
        ctx = ProbeContext(proc, parse_prototype("int f(int x)"), None)
        assert proc.space.find_mapping(ctx.unmapped_address()) is None

    def test_freed_pointer_is_dangling(self):
        proc = SimProcess()
        ctx = ProbeContext(proc, parse_prototype("int f(int x)"), None)
        ptr = ctx.freed_pointer()
        assert proc.heap.allocation_size(ptr) is None
        assert is_readable(proc.space, ptr)  # mapped but stale

    def test_map_filled_has_no_terminator(self):
        proc = SimProcess()
        ctx = ProbeContext(proc, parse_prototype("int f(int x)"), None)
        start = ctx.map_filled(4096, byte=0x41)
        assert proc.space.read(start, 4096) == b"A" * 4096


class TestTestValues:
    def values(self, function, param_name):
        pages = load_corpus()
        page = pages[function]
        from repro.libc import standard_registry
        proto = standard_registry()[function].prototype
        param = [p for p in proto.params if p.name == param_name][0]
        return values_for(param, page.role_of(param_name)), param

    def test_cstring_in_has_all_rank_levels(self):
        values, _ = self.values("strlen", "s")
        ranks = {v.max_rank for v in values}
        assert ranks == {0, 1, 2, 3}

    def test_labels_unique_per_param(self):
        for function, param in [("strcpy", "dest"), ("strcpy", "src"),
                                ("free", "ptr"), ("fclose", "stream"),
                                ("toupper", "c"), ("memcpy", "n")]:
            values, _ = self.values(function, param)
            labels = [v.label for v in values]
            assert len(labels) == len(set(labels)), f"{function}/{param}"

    def test_null_rank_depends_on_chain(self):
        heap_values, _ = self.values("free", "ptr")
        null = [v for v in heap_values if v.label == "null"][0]
        assert null.max_rank == 2  # free(NULL) is legal at the strictest type
        file_values, _ = self.values("fclose", "stream")
        null = [v for v in file_values if v.label == "null"][0]
        assert null.max_rank == 0  # fclose(NULL) is never legal

    def test_materialize_exact_required_fits(self):
        values, param = self.values("strcpy", "dest")
        exact = [v for v in values if v.label == "exact_required"][0]
        proc = SimProcess()
        from repro.libc import standard_registry
        proto = standard_registry()["strcpy"].prototype
        ctx = ProbeContext(proc, proto, manpage_for("strcpy"))
        ctx.build_goldens()
        address = exact.materialize(ctx, param)
        required = ctx.required_bytes(param)
        proc.space.write(address, b"x" * required)  # fits exactly

    def test_format_chain_is_deeper(self):
        values, _ = self.values("sprintf", "format")
        assert max(v.max_rank for v in values) == 4
        labels = {v.label for v in values}
        assert "fmt_percent_n" in labels
        assert "fmt_unmatched_int" in labels
