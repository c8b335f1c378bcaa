"""The command-line interface: output contracts, formats, exit codes, and
the size guard."""

import errno
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import poset_from_covers
from hypothesis import given, settings
from hypothesis import strategies as st_

import wplat
from wplat import build_poset, chains, cli, lattice, series, stirling
from wplat.cli import _verify_structure, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_3_2_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--k", "2")
        assert code == 0
        assert out.strip() == "r=1:5, r=2:6, r=3:1, total 12"

    def test_1_1_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "1", "--k", "1")
        assert code == 0
        assert out.strip() == "r=1:1"

    def test_single_rank(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--k", "2", "--r", "2")
        assert code == 0
        assert out.strip() == "r=2:6"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--k", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {"1": 5, "2": 6, "3": 1}
        assert data["total"] == 12

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--k", "2",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "r,count"
        assert "1,5" in out.splitlines()

    def test_deterministic(self, capsys):
        a = run(capsys, "count", "--n", "4", "--k", "2")
        b = run(capsys, "count", "--n", "4", "--k", "2")
        assert a == b

    @pytest.mark.parametrize("n,k", [(2, 1000), (3, 40), (2, 5000)])
    def test_many_layers(self, capsys, n, k):
        # the count sums over the refinement lists once per layer and lists
        # no element, so many layers are cheap; each count is the definition's
        code, out, _ = run(capsys, "count", "--n", str(n), "--k", str(k), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {str(r): stirling.T_def(n, k, r) for r in range(1, n + 1)}
        assert data["total"] == sum(stirling.T_def(n, k, r) for r in range(1, n + 1))

    def test_mismatch_names_both_counts(self, capsys, monkeypatch):
        T_def = stirling.T_def
        monkeypatch.setattr(stirling, "T_def",
                            lambda n, k, r: T_def(n, k, r) + ((n, k, r) == (3, 2, 2)))
        code, out, err = run(capsys, "count", "--n", "3", "--k", "2")
        assert (code, out) == (1, "")
        assert err == "mismatch at r=2: enumerated 6, T(n,k,r) 7\n"


class TestTableAndSeries:
    def test_table_T(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "T", "--n-max", "4",
                           "--k", "2")
        assert code == 0
        assert out.splitlines()[-1].replace(" ", "") == "15,32,12,1"

    def test_table_t(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "t", "--n-max", "4",
                           "--k", "3")
        assert code == 0
        assert out.splitlines()[-1].replace(" ", "") == "-105,87,-18,1"

    def test_series_matches_table(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "exp", "--k", "2",
                           "--order", "4")
        assert code == 0
        assert out.splitlines()[-1].replace(" ", "") == "0,15,32,12,1"

    @pytest.mark.parametrize("kind,direct", [("T", stirling.T_def), ("t", stirling.t_def)])
    def test_large_k_table(self, kind, direct):
        # the split recurrence fills its first-column levels bottom-up, so a
        # fresh interpreter's recursion limit does not bound k
        src = str(Path(wplat.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wplat.cli", "table", "--kind", kind, "--n-max", "3",
             "--k", "300", "--format", "json"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = json.loads(proc.stdout)["rows"]
        assert rows == [[direct(n, 300, r) for r in range(1, n + 1)] for n in range(1, 4)]

    def test_split_mismatch_names_split_route(self, capsys, monkeypatch):
        split = stirling.T_rec_split
        monkeypatch.setattr(stirling, "T_rec_split",
                            lambda n, k, r: split(n, k, r) + ((n, k, r) == (3, 2, 2)))
        code, out, err = run(capsys, "table", "--kind", "T", "--n-max", "4",
                             "--k", "2")
        assert code == 1
        assert out == ""
        assert "T(3,2,2): def 6, split 7" in err

    def test_non_integral_series_coefficient_is_a_mismatch(self, capsys, monkeypatch):
        exp_k_xy = series.exp_k_xy

        def half_off(k, order):
            rows = exp_k_xy(k, order).rows()
            coeff = {(n, r): c for n, row in enumerate(rows) for r, c in enumerate(row)}
            coeff[(3, 2)] = Fraction(13, 2)
            return series.BivariateSeries(order, order, coeff)

        monkeypatch.setattr(series, "exp_k_xy", half_off)
        code, out, err = run(capsys, "table", "--kind", "T", "--n-max", "4",
                             "--k", "2")
        assert (code, out) == (1, "")
        assert err == "route mismatch for T(3,2,2): def 6, series 13/2\n"

    @pytest.mark.parametrize("kind,k,want", [
        ("t", "2", "route mismatch for t(3,2,2): def -6, series 1/2"),
        ("s", "1", "route mismatch for s(3,1,1): def 2, series 1/2"),
    ])
    def test_non_integral_log_coefficient_exits_1(self, kind, k, want):
        # a fresh interpreter, so that a traceback or stray output would show;
        # under -O too, so that the exit does not depend on ``assert``
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from wplat import cli, series\n"
            "log_k_xy = series.log_k_xy\n"
            "def half(k, order):\n"
            "    rows = log_k_xy(k, order).rows()\n"
            "    coeff = {(n, r): c for n, row in enumerate(rows) for r, c in enumerate(row)}\n"
            "    coeff[(3, 2 if k > 1 else 1)] = Fraction(1, 2)\n"
            "    return series.BivariateSeries(order, order, coeff)\n"
            "series.log_k_xy = half\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(wplat.__file__).parents[1])
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", script, "table", "--kind", kind, "--n-max",
                 "4", "--k", k], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src))
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want + "\n"), flags

    def test_bell_mismatch_is_one_stderr_line(self, capsys, monkeypatch):
        stirling2 = stirling.stirling2
        monkeypatch.setattr(stirling, "stirling2",
                            lambda n, r: stirling2(n, r) + ((n, r) == (3, 2)))
        code, out, err = run(capsys, "table", "--kind", "bell", "--n-max", "4")
        assert (code, out) == (1, "")
        assert err == "Bell formulas disagree: [1, 1, 2, 6] vs [1, 1, 2, 5]\n"

    def test_bell_mismatch_raises_route_mismatch(self, monkeypatch):
        stirling2 = stirling.stirling2
        monkeypatch.setattr(stirling, "stirling2",
                            lambda n, r: stirling2(n, r) + ((n, r) == (3, 2)))
        with pytest.raises(wplat.RouteMismatch, match="Bell formulas disagree"):
            stirling.bell_row(4)

    def test_other_assertion_errors_are_not_mismatches(self, monkeypatch):
        # only RouteMismatch is reported as exit 1; any other error propagates
        def broken(n, k, r):
            raise AssertionError("not a route")

        monkeypatch.setattr(stirling, "T_def", broken)
        with pytest.raises(AssertionError, match="not a route") as caught:
            main(["table", "--kind", "T", "--n-max", "4", "--k", "2"])
        assert not isinstance(caught.value, wplat.RouteMismatch)


class TestMobius:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "mobius", "--n", "4", "--k", "2",
                           "--method", "all")
        assert code == 0
        values = {line.split(":")[1].strip() for line in out.strip().splitlines()}
        assert values == {"15"}

    def test_closed_only(self, capsys):
        code, out, _ = run(capsys, "mobius", "--n", "5", "--k", "2",
                           "--method", "closed")
        assert code == 0
        assert "-105" in out

    def test_mismatch_names_every_value(self, capsys, monkeypatch):
        via_chains = lattice.Poset.mobius_via_chains
        monkeypatch.setattr(lattice.Poset, "mobius_via_chains",
                            lambda self: via_chains(self) + 1)
        code, out, err = run(capsys, "mobius", "--n", "4", "--k", "2",
                             "--method", "all")
        assert (code, out) == (1, "")
        assert err == ("mobius methods disagree: "
                       "{'closed': 15, 'recursive': 15, 'chains': 16, 'listed': 15}\n")

    def test_all_checks_the_pass_against_the_listed_chains(self, capsys, monkeypatch):
        # the pass agrees with the recursion, so only the listing catches it
        walk = lattice.Poset.decreasing_chains
        monkeypatch.setattr(lattice.Poset, "decreasing_chains",
                            lambda self, x, y: [*walk(self, x, y), ()])
        code, out, err = run(capsys, "mobius", "--n", "4", "--k", "2",
                             "--method", "all")
        assert (code, out) == (1, "")
        assert err == ("mobius methods disagree: "
                       "{'closed': 15, 'recursive': 15, 'chains': 15, 'listed': 16}\n")


class TestCharpoly:
    def test_paper_string(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "3", "--k", "2")
        assert code == 0
        assert out.strip() == "x(x-2)(x-4) = x^3-6x^2+8x"

    def test_mismatch_names_both_routes(self, capsys, monkeypatch):
        summation = lattice.char_poly_summation
        monkeypatch.setattr(lattice, "char_poly_summation", lambda n, k, P: [
            c + (r == 1) for r, c in enumerate(summation(n, k, P))])
        code, out, err = run(capsys, "charpoly", "--n", "3", "--k", "2")
        assert (code, out) == (1, "")
        assert err == ("characteristic polynomial routes disagree: "
                       "summation [0, 9, -6, 1], product [0, 8, -6, 1]\n")


class TestChainsTreesHasse:
    def test_decreasing_chain_count(self, capsys):
        code, out, _ = run(capsys, "chains", "--n", "3", "--k", "2",
                           "--filter", "decreasing")
        assert code == 0
        assert out.strip().splitlines()[-1] == "total 3"

    def test_all_chain_count(self, capsys):
        code, out, _ = run(capsys, "chains", "--n", "3", "--k", "2",
                           "--filter", "all")
        assert code == 0
        assert out.strip().splitlines()[-1] == "total 13"

    def test_trees_json(self, capsys):
        code, out, _ = run(capsys, "trees", "--n", "3", "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert len(data["trees"]) == 3

    @pytest.mark.parametrize("fmt,lines,digest", [
        ("dot", 1203, "e5885507e36ea5b5db8f3d098b7b1ccf58931b8aa78d1e78e06e2f740366ad24"),
        ("text", 81, "03d9d10b4b6ce741a0402fde2de9344d22a8acf9ece81eb52652bf201100a887"),
        ("json", 2487, "ad8f41ff1ed907319a6422499f92c76382f17927771306c6401875ebe68bfcda"),
    ])
    def test_trees_text_is_written_in_chunks(self, monkeypatch, fmt, lines, digest):
        monkeypatch.setattr(lattice, "DOT_CHUNK_LINES", 50)
        chunks = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=chunks.append, flush=lambda: None))
        assert main(["trees", "--n", "4", "--k", "3", "--format", fmt]) == 0
        assert [c.count("\n") for c in chunks] == [50] * (lines // 50) + [lines % 50]
        text = "".join(chunks)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_hasse_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "3", "--k", "1")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 6


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert all(c["status"] in ("pass", "warn") for c in data["checks"])
        names = {c["check"] for c in data["checks"]}
        assert names == {"el", "least_upper_bounds", "greatest_lower_bounds",
                         "semimodular", "atomistic", "atom_count",
                         "partition_round_trips", "chain_tree_round_trips"}

    def test_tree_set_mismatch_fails_at_equal_count(self, capsys, monkeypatch):
        generate = chains.enumerate_lbt

        def duplicated(n, k):
            trees = generate(n, k)
            return [trees[1]] + trees[1:]

        monkeypatch.setattr(chains, "enumerate_lbt", duplicated)
        code, out, _ = run(capsys, "verify", "--suite", "bijections",
                           "--n", "4", "--k", "2")
        assert code == 1
        check, = [c for c in json.loads(out)["checks"]
                  if c["check"] == "chain_tree_round_trips"]
        # the repeated tree is a chain image at both of its positions
        missing = generate(4, 2)[0].to_nested()
        assert missing == [None, [1, 1], [[2, 1], [2, 1], [[3, 1], [3, 1], [4, 1]]]]
        assert check["witnesses"] == [{"issue": "chain image not generated", "count": 1,
                                       "trees": [missing]}]

    # a tree that reads off but is no image at (4, 2), its leaf 4 raised to 5,
    # and a tree of (4, 3) that no chain at (4, 2) maps to
    STRAY = chains.LBT(None, None, chains.LBT(1, 1, chains.LBT(1, 1), chains.LBT(3, 1)),
                       chains.LBT(2, 1, chains.LBT(2, 1), chains.LBT(5, 1)))
    FOREIGN = chains.LBT(None, None, chains.LBT(1, 2, chains.LBT(1, 2, chains.LBT(1, 2),
                                                                chains.LBT(4, 2)),
                                                chains.LBT(3, 2)), chains.LBT(2, 2))
    TREE_COUNT = "tree count != decreasing chain count"
    NOT_GENERATED = "chain image not generated"
    NOT_IMAGE = "generated tree not a chain image"

    # the witnesses of each fault at (4, 2), as the set comparison of every
    # chain image with every generated tree listed them
    CHAIN_TREE_FAULTS = {
        "generator repeats a tree": [{"issue": TREE_COUNT, "trees": 16, "chains": 15}],
        "generator drops a tree": [
            {"issue": TREE_COUNT, "trees": 14, "chains": 15},
            {"issue": NOT_GENERATED, "count": 1,
             "trees": [[None, [[1, 1], [1, 1], [4, 1]], [[2, 1], [2, 1], [3, 1]]]]}],
        "generator adds a foreign tree": [
            {"issue": TREE_COUNT, "trees": 16, "chains": 15},
            {"issue": NOT_IMAGE, "count": 1,
             "trees": [[None, [[1, 2], [[1, 2], [1, 2], [4, 2]], [3, 2]], [2, 2]]]}],
        "two chains to one tree": [
            {"chain": ["(1,3)_1", "(1,2)_1", "(3,4)_2", "(1,4)_2"],
             "issue": "chain/tree round trip"},
            {"issue": NOT_IMAGE, "count": 1,
             "trees": [[None, [[3, 2], [[1, 1], [1, 1], [3, 1]], [2, 1]], [4, 2]]]}],
        "three chains to a stray tree": [
            {"chain": ["(1,3)_1", "(1,2)_1", "(2,4)_2", "(1,4)_2"],
             "issue": "chain/tree round trip"},
            {"chain": ["(1,4)_1", "(1,3)_1", "(1,2)_1", "(1,4)_2"],
             "issue": "chain/tree round trip"},
            {"chain": ["(2,4)_1", "(1,2)_1", "(2,3)_2", "(1,4)_2"],
             "issue": "chain/tree round trip"},
            {"issue": NOT_GENERATED, "count": 3,
             "trees": [[None, [[1, 1], [1, 1], [3, 1]], [[2, 1], [2, 1], [5, 1]]]] * 3},
            {"issue": NOT_IMAGE, "count": 3,
             "trees": [[None, [[2, 2], [1, 1], [[2, 1], [2, 1], [4, 1]]], [3, 2]],
                       [None, [[2, 2], [[1, 1], [1, 1], [3, 1]], [2, 1]], [4, 2]],
                       [None, [[1, 1], [[1, 1], [1, 1], [4, 1]], [3, 1]], [2, 1]]]}],
    }

    def _chain_tree_witnesses(self, capsys, monkeypatch, fault):
        generate, to_lbt = chains.enumerate_lbt, chains.chain_to_lbt
        edits = {"generator repeats a tree": lambda t: t + [t[3]],
                 "generator drops a tree": lambda t: t[:5] + t[6:],
                 "generator adds a foreign tree": lambda t: t[:7] + [self.FOREIGN] + t[7:]}
        seen = []

        def image(labels, n, k):
            seen.append(labels)
            if fault == "two chains to one tree" and len(seen) == 4:
                return to_lbt(seen[2], n, k)
            if fault == "three chains to a stray tree" and len(seen) in (3, 6, 10):
                return self.STRAY
            if fault == "every chain to a stray tree":
                return self.STRAY
            return to_lbt(labels, n, k)

        if fault in edits:
            monkeypatch.setattr(chains, "enumerate_lbt", lambda n, k: edits[fault](generate(n, k)))
        else:
            monkeypatch.setattr(chains, "chain_to_lbt", image)
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n", "4", "--k", "2")
        check, = [c for c in json.loads(out)["checks"]
                  if c["check"] == "chain_tree_round_trips"]
        assert (code, check["status"]) == (1, "fail")
        return check["witnesses"]

    @pytest.mark.parametrize("fault", list(CHAIN_TREE_FAULTS))
    def test_chain_tree_witnesses_are_pinned(self, capsys, monkeypatch, fault):
        assert self._chain_tree_witnesses(capsys, monkeypatch, fault) == \
            self.CHAIN_TREE_FAULTS[fault]

    def test_chain_tree_witnesses_are_capped(self, capsys, monkeypatch):
        trees = [t.to_nested() for t in chains.enumerate_lbt(4, 2)]
        witnesses = self._chain_tree_witnesses(capsys, monkeypatch,
                                               "every chain to a stray tree")
        assert [w["issue"] for w in witnesses] == \
            ["chain/tree round trip"] * 15 + [self.NOT_GENERATED, self.NOT_IMAGE]
        assert witnesses[-2:] == [
            {"issue": self.NOT_GENERATED, "count": 15,
             "trees": [self.STRAY.to_nested()] * lattice.MAX_WITNESSES},
            {"issue": self.NOT_IMAGE, "count": 15, "trees": trees[:lattice.MAX_WITNESSES]}]

    def test_chain_tree_check_streams_after_generating(self, monkeypatch):
        # the trees are generated before the elements are decoded, and each
        # chain's tree is built before the next chain is produced
        P = build_poset(4, 3)
        generate, to_lbt, walk = chains.enumerate_lbt, chains.chain_to_lbt, P.decreasing_chains
        events = []

        def generating(n, k):
            events.append(("generate", "elements" in vars(P)))
            return generate(n, k)

        def walking(x, y):
            for labels in walk(x, y):
                events.append(("chain", labels))
                yield labels

        def imaging(labels, n, k):
            events.append(("image", labels))
            return to_lbt(labels, n, k)

        monkeypatch.setattr(chains, "enumerate_lbt", generating)
        monkeypatch.setattr(chains, "chain_to_lbt", imaging)
        monkeypatch.setattr(P, "decreasing_chains", walking)
        assert all(c["status"] == "pass" for c in cli._verify_bijections(P))
        assert "elements" in vars(P)
        want = [e for labels in walk(P.bottom_idx, P.top_idx)
                for e in (("chain", labels), ("image", labels))]
        assert len(want) == 2 * 80
        assert events == [("generate", False)] + want

    def test_bijections_suite_holds_little(self):
        # neither the chains nor their trees are held, and the generator's
        # memo is gone before the elements are decoded: the suite's traced
        # peak at (6, 2) was 4.00 MiB when all of them were held at once
        cli._verify_bijections(build_poset(2, 1))  # loads the modules it runs
        P = build_poset(6, 2)
        tracemalloc.start()
        try:
            cli._verify_bijections(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_inverse_that_accepts_a_non_image_fails(self, capsys, monkeypatch):
        parse = wplat.wpartition.one_line_parse

        def lenient(text, n, k):
            try:
                return parse(text, n, k)
            except wplat.InvalidPartition:
                return wplat.wpartition.bottom(n, k)

        monkeypatch.setattr(wplat.wpartition, "one_line_parse", lenient)
        code, out, _ = run(capsys, "verify", "--suite", "bijections",
                           "--n", "3", "--k", "2")
        assert code == 1
        check, = [c for c in json.loads(out)["checks"]
                  if c["check"] == "partition_round_trips"]
        assert check["witnesses"] == [
            {"pi": "1/2/3", "issue": "one-line inverse accepts a repeated element"}]

    def test_round_trip_witnesses_in_element_order(self, capsys, monkeypatch):
        # the rooted-tree inverse fails at two elements and the edge-set
        # inverse at two, one of them shared: the witnesses list them in
        # element order, the rooted tree before the edge set
        wp = wplat.wpartition
        fails = {wp.from_rooted_tree: {"(12)^2 3", "13/2"},
                 wp.edge_set_inverse: {"12/3", "13/2"}}

        def failing(inverse):
            def wrong(*args):
                got = inverse(*args)
                return wp.bottom(got.n, got.k) if str(got) in fails[inverse] else got
            return wrong

        for inverse in fails:
            monkeypatch.setattr(wp, inverse.__name__, failing(inverse))
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n", "3", "--k", "2")
        assert code == 1
        check, = [c for c in json.loads(out)["checks"]
                  if c["check"] == "partition_round_trips"]
        assert check["witnesses"] == [
            {"pi": "(12)^2 3", "issue": "rooted-tree round trip"},
            {"pi": "12/3", "issue": "edge-set round trip"},
            {"pi": "13/2", "issue": "rooted-tree round trip"},
            {"pi": "13/2", "issue": "edge-set round trip"}]

    @pytest.mark.parametrize("n,k,fail", [(4, 2, False), (3, 3, True)])
    def test_round_trips_call_each_map_once_per_element(self, capsys, monkeypatch,
                                                        n, k, fail):
        # each forward map and inverse runs once per element, and once more
        # in the refusal checks; one_line_print also names each witness and
        # the refusal checks' element
        wp = wplat.wpartition
        calls = Counter()

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        if fail:  # the one-line round trip fails at each name of one block
            parse = wp.one_line_parse

            def one_line_parse(text, n, k):
                return wp.bottom(n, k) if "/" not in text else parse(text, n, k)
            monkeypatch.setattr(wp, "one_line_parse", one_line_parse)
        names = ("to_rooted_tree", "from_rooted_tree", "edge_set", "edge_set_inverse",
                 "one_line_print", "one_line_parse")
        for name in names:
            monkeypatch.setattr(wp, name, counted(getattr(wp, name)))
        code, out, _ = run(capsys, "verify", "--suite", "bijections",
                           "--n", str(n), "--k", str(k))
        check, = [c for c in json.loads(out)["checks"]
                  if c["check"] == "partition_round_trips"]
        elements = len(build_poset(n, k).elements) - 1  # less the adjoined top
        witnesses = len(check["witnesses"])
        assert (code, witnesses > 0) == ((1, True) if fail else (0, False))
        assert calls == {**dict.fromkeys(names, elements + 1),
                         "one_line_print": elements + witnesses + 1}

    def test_bijections_with_two_digit_exponents(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n", "2", "--k", "10")
        assert code == 0
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    def test_every_suite_passes_on_small_sizes(self, capsys):
        for n in range(1, 4):
            for k in range(1, 13):
                code, out, _ = run(capsys, "verify", "--suite", "all",
                                   "--n", str(n), "--k", str(k))
                assert code == 0, (n, k)
                assert all(c["status"] != "fail" for c in json.loads(out)["checks"]), (n, k)

    def test_el_route_disagreement_is_a_mismatch(self, capsys, monkeypatch):
        # the level pass flags [bottom, top] while its chains pass
        P = build_poset(3, 2)
        level_pass = lattice.Poset._el_pass

        def flagged(x, pairs):
            for y, rising, *values in level_pass(x, pairs):
                if (x, y) == (P.bottom_idx, P.top_idx):
                    rising = 2
                yield y, rising, *values

        monkeypatch.setattr(lattice.Poset, "_el_pass", staticmethod(flagged))
        code, out, err = run(capsys, "verify", "--suite", "el", "--n", "3", "--k", "2")
        assert code == 1 and out == ""
        assert f"[{P.element_name(P.bottom_idx)}, {P.element_name(P.top_idx)}]" in err

    def test_atom_count_reads_the_order(self):
        P = build_poset(3, 2)
        covers = list(P.covers)
        covers.remove(next(c for c in covers if c[0] == P.bottom_idx))
        Q = poset_from_covers(P, covers)
        statuses = {c["check"]: c["status"] for c in _verify_structure(Q)}
        assert statuses["atom_count"] == "fail"


class TestGuardAndOut:
    def test_bad_guard_setting_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WPLAT_GUARD", "abc")
        code, out, err = run(capsys, "count", "--n", "3", "--k", "2")
        assert code == 2
        assert out == ""
        assert err == "WPLAT_GUARD must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("argv", ["count --n 3 --k 2", "table --kind T --n-max 4"])
    def test_negative_guard_setting_is_a_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WPLAT_GUARD", "-5")
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == "WPLAT_GUARD must be a non-negative integer, got '-5'\n"

    def test_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WPLAT_GUARD", "5")
        code, out, err = run(capsys, "mobius", "--n", "5", "--k", "2",
                             "--method", "chains")
        assert code == 2

    def test_force_overrides_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("WPLAT_GUARD", "5")
        code, out, _ = run(capsys, "mobius", "--n", "3", "--k", "2",
                           "--method", "chains", "--force")
        assert code == 0
        assert "-3" in out

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, "count", "--n", "3", "--k", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "r=1:5, r=2:6, r=3:1, total 12"

    def test_unwritable_out_is_a_usage_error(self, tmp_path):
        src = str(Path(wplat.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wplat.cli", "count", "--n", "3", "--k", "2",
             "--out", str(tmp_path / "missing" / "x.txt")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("launch", [["-m", "wplat.cli"],
                                        ["-c", "from wplat.cli import run; run()"]])
    def test_reader_closing_early_is_not_a_mismatch(self, launch):
        # the reader keeps 10 bytes of the DOT text and closes the pipe; the
        # second launch is what the wplat console script runs
        src = str(Path(wplat.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, *launch, "hasse", "--n", "6", "--k", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert head == b"digraph ha"
        assert proc.wait(timeout=60) != 1
        assert err == b""

    @pytest.mark.parametrize("argv", [
        "count --n 4 --k 2", "charpoly --n 4 --k 2", "trees --n 4 --k 2",
        "verify --suite bijections --n 4 --k 2",
    ])
    def test_guard_covers_command(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WPLAT_GUARD", "10")
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert "over the guard of 10" in err
        assert out == ""

    def test_guard_counts_maximal_chains(self, capsys, monkeypatch):
        # (4,2) has 61 elements and 15 decreasing chains, but 176 maximal chains
        monkeypatch.setenv("WPLAT_GUARD", "100")
        code, out, err = run(capsys, "chains", "--n", "4", "--k", "2")
        assert (code, out) == (2, "")
        assert "176" in err and "over the guard of 100" in err
        for filt, digest in [
                ("rising", "5bcb22df5f82b0627322b7b1aaffe985eb2dabc8b8e7132ae1b4d5bc89d57fde"),
                ("decreasing", "e103efd94691c7122ae54627e16b6dbb6936393c6294a9888d3874113abbd6ba")]:
            code, out, _ = run(capsys, "chains", "--n", "4", "--k", "2", "--filter", filt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_force_builds_charpoly_poset(self, capsys, monkeypatch):
        monkeypatch.setenv("WPLAT_GUARD", "10")
        code, out, _ = run(capsys, "charpoly", "--n", "4", "--k", "2", "--force")
        assert code == 0
        assert out.strip() == "x(x-2)(x-4)(x-6) = x^4-12x^3+44x^2-48x"


def _capped_memory():
    """Run in the child before exec: its address space is capped at 1 GiB, so
    a request that grows without bound fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


HUGE = "100000000000000000000"


class TestHugeSizes:
    """Every size too large for the guard is refused at once, exit 2 with one
    stderr line, however large: no traceback, no unbounded loop or memory.
    Each request runs in a fresh process with 1 GiB of address space and a
    few seconds, so a regression fails instead of exhausting the host."""

    @pytest.mark.parametrize("argv", [
        f"count --n {HUGE} --k 2", f"verify --n {HUGE} --k 2", f"trees --n {HUGE} --k 2",
        f"count --n 40 --k {HUGE}", f"count --n 1 --k {HUGE}", "count --n 2 --k 150000",
        f"charpoly --n {HUGE} --k 2", f"mobius --method closed --n {HUGE} --k 2",
        f"table --kind T --n-max {HUGE}", f"table --kind T --n-max 3 --k {HUGE}",
        f"series --which exp --k 2 --order {HUGE}",
    ])
    def test_refused_by_the_guard(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "wplat.cli", *argv.split()], capture_output=True,
            text=True, timeout=10, preexec_fn=_capped_memory,
            env={**{k: v for k, v in os.environ.items() if k != "WPLAT_GUARD"},
                 "PYTHONPATH": str(Path(wplat.__file__).parents[1])})
        assert (proc.returncode, proc.stdout) == (2, "")
        line, = proc.stderr.splitlines()
        assert "over the guard of 200000; raise the guard to proceed" in line \
            or "that the guard of 200000 allows; raise the guard to proceed" in line

    def test_numbers_guard(self, capsys, monkeypatch):
        # levels times (order + 1)^2 coefficients: the benchmark's largest
        # numbers requests hold 3,844, and --force overrides the guard
        assert run(capsys, "series", "--which", "exp", "--k", "4", "--order", "30")[0] == 0
        monkeypatch.setenv("WPLAT_GUARD", "3843")
        code, out, err = run(capsys, "series", "--which", "exp", "--k", "4", "--order", "30")
        assert (code, out) == (2, "")
        assert err == ("series needs about 3844 coefficients, over the guard of 3843; "
                       "raise the guard to proceed\n")
        assert run(capsys, "series", "--which", "exp", "--k", "4", "--order", "30",
                   "--force")[0] == 0
        code, _, err = run(capsys, "table", "--kind", "t", "--n-max", "61", "--k", "1")
        assert (code, err) == (2, "table needs about 3844 coefficients, over the guard of "
                                  "3843; raise the guard to proceed\n")

    @pytest.mark.parametrize("argv", [
        "mobius --n 4 --k 2 --method closed", "mobius --n 4 --k 2 --method all",
        "charpoly --n 4 --k 2"])
    def test_guard_runs_before_any_route(self, capsys, monkeypatch, argv):
        events = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("check_guard", "mobius_closed_form", "char_poly_product",
                     "char_poly_roots"):
            monkeypatch.setattr(lattice, name, logged(name, getattr(lattice, name)))
        assert run(capsys, *argv.split())[0] == 0
        assert events[0] == "check_guard"


class TestProcessExit:
    """A request run as a process ends by os._exit once its status is known;
    nothing it wrote or registered is lost on the way."""

    @staticmethod
    def launch(*args, unbuffered=False, env=(), **kwargs):
        # stdout is block-buffered unless PYTHONUNBUFFERED is set, whatever
        # the environment the tests run in
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            environ["PYTHONUNBUFFERED"] = "1"
        environ.update(env, PYTHONPATH=str(Path(wplat.__file__).parents[1]))
        return subprocess.run([sys.executable, *args], env=environ, **kwargs)

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_large_output_is_written_whole(self, capsys, tmp_path, unbuffered):
        # the DOT text of (6,2) is far larger than a pipe buffer
        argv = ["hasse", "--n", "6", "--k", "2"]
        main(argv)
        want = capsys.readouterr().out.encode()
        assert len(want) > 1 << 16  # a Linux pipe holds 64 KiB
        piped = self.launch("-m", "wplat.cli", *argv, unbuffered=unbuffered,
                            capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, want, b"")
        target = tmp_path / "hasse.dot"
        written = self.launch("-m", "wplat.cli", *argv, "--out", str(target),
                              unbuffered=unbuffered, capture_output=True)
        assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
        assert target.read_bytes() == want

    def test_atexit_handlers_run(self):
        proc = self.launch(
            "-c", "import atexit; atexit.register(print, 'bye'); "
                  "from wplat.cli import run; run()",
            "count", "--n", "3", "--k", "2", capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "r=1:5, r=2:6, r=3:1, total 12\nbye\n"

    def test_atexit_runner_exists(self):
        # run() runs the handlers through this undocumented CPython name
        import atexit
        assert callable(getattr(atexit, "_run_exitfuncs", None)), \
            "atexit._run_exitfuncs is gone: cli.run() can no longer run the handlers"

    def test_guard_refusal_and_help_keep_their_exit(self):
        refused = self.launch("-m", "wplat.cli", "count", "--n", "4", "--k", "2",
                              env={"WPLAT_GUARD": "10"},
                              capture_output=True, text=True)
        assert (refused.returncode, refused.stdout) == (2, "")
        assert len(refused.stderr.splitlines()) == 1
        assert "over the guard of 10" in refused.stderr
        helped = self.launch("-m", "wplat.cli", "--help", capture_output=True, text=True)
        assert (helped.returncode, helped.stderr) == (0, "")
        assert helped.stdout.startswith("usage: wplat")

    def test_exit_loads_no_module(self):
        # sys.modules as an atexit handler sees it, after main's normal
        # return and inside run's exit
        script = ("import atexit, sys; from wplat import cli; "
                  "atexit.register(lambda: print(*sorted(sys.modules))); "
                  "cli.run() if sys.argv.pop(1) == 'run' else cli.main()")
        argv = ["verify", "--suite", "el", "--n", "3", "--k", "2"]
        loaded = {}
        for entry in ("main", "run"):
            proc = self.launch("-c", script, entry, *argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, "")
            loaded[entry] = set(proc.stdout.splitlines()[-1].split())
        assert loaded["run"] == loaded["main"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_unwritable_stdout_is_a_usage_error(self, unbuffered):
        # unbuffered, the write fails; buffered, the flush after it does
        for argv in ("count --n 3 --k 2", "--help", "count --help"):
            with open("/dev/full", "w") as full:
                proc = self.launch("-m", "wplat.cli", *argv.split(),
                                   unbuffered=unbuffered, stdout=full,
                                   stderr=subprocess.PIPE, text=True)
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith("wplat: cannot write standard output: "), argv
            assert len(proc.stderr.splitlines()) == 1, argv

    @pytest.mark.parametrize("argv", ["count --n 3 --k 2", "--help"])
    def test_closed_stdout_is_a_usage_error(self, argv):
        # with file descriptor 1 closed the interpreter sets sys.stdout to None
        proc = self.launch("-m", "wplat.cli", *argv.split(), preexec_fn=lambda: os.close(1),
                           stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (
            2, f"wplat: cannot write standard output: {os.strerror(errno.EBADF)}\n")

    def test_stdout_errors_in_process(self, capsys, monkeypatch):
        # a full device is a usage error; a closed pipe propagates to the caller
        class Failing:
            def __init__(self, error):
                self.error = error

            def write(self, text):
                raise self.error

        monkeypatch.setattr(sys, "stdout", Failing(OSError(28, "No space left on device")))
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "3", "--k", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "wplat: cannot write standard output: No space left on device\n")
        monkeypatch.setattr(sys, "stdout", Failing(BrokenPipeError(32, "Broken pipe")))
        with pytest.raises(BrokenPipeError):
            main(["count", "--n", "3", "--k", "2"])


class TestClosures:
    """Only the recursion and the structure report read the order's
    closures; the guard refuses their requests when the closures would not
    fit."""

    @staticmethod
    def _refuse_closures(monkeypatch):
        def refuse(*_):
            raise AssertionError("a closure was built")

        monkeypatch.setattr(lattice, "_closure_above", refuse)
        monkeypatch.setattr(lattice, "_closure_below", refuse)

    @pytest.mark.parametrize("argv", [
        "hasse --n 4 --k 2", "charpoly --n 4 --k 2", "chains --filter decreasing --n 4 --k 2",
        "chains --n 4 --k 2", "mobius --method chains --n 4 --k 2",
        "verify --suite el --n 4 --k 2", "verify --suite bijections --n 4 --k 2",
    ])
    def test_command_builds_no_closure(self, capsys, monkeypatch, argv):
        self._refuse_closures(monkeypatch)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out

    @pytest.mark.parametrize("argv", [
        "mobius --method recursive --n 4 --k 2", "mobius --n 4 --k 2",
        "verify --suite structure --n 4 --k 2", "verify --n 4 --k 2",
    ])
    def test_command_builds_closures(self, monkeypatch, argv):
        self._refuse_closures(monkeypatch)
        with pytest.raises(AssertionError, match="a closure was built"):
            main(argv.split())

    @pytest.mark.parametrize("argv", [
        "mobius --method recursive --n 4 --k 2", "mobius --n 4 --k 2",
    ])
    def test_recursion_builds_the_lower_closure_only(self, capsys, monkeypatch, argv):
        # the recursion finds the z >= x in the lower closure, so the upper
        # one, which the structure report reads, is never built
        def refuse(*_):
            raise AssertionError("the upper closure was built")

        calls = []
        real = lattice._closure_below

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lattice, "_closure_above", refuse)
        monkeypatch.setattr(lattice, "_closure_below", counting)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out.splitlines()[-1].endswith("15")
        assert len(calls) == 1

    @pytest.mark.parametrize("closure", ["_anc", "_desc"])
    def test_each_closure_is_refused(self, monkeypatch, closure):
        # each closure goes through a helper that the tests above refuse
        self._refuse_closures(monkeypatch)
        P = build_poset(4, 2)
        with pytest.raises(AssertionError, match="a closure was built"):
            getattr(P, closure)

    @pytest.mark.parametrize("argv", [
        "mobius --method recursive --n 8 --k 2", "mobius --n 8 --k 2",
        "verify --suite structure --n 8 --k 2", "verify --n 8 --k 2",
    ])
    def test_closure_guard_refuses_before_building(self, capsys, monkeypatch, argv):
        # the estimate counts the closures that the request builds: the
        # lower one for the recursion, both for the structure report
        def refuse(*_):
            raise AssertionError("the guard must refuse before the build")

        monkeypatch.delenv("WPLAT_GUARD", raising=False)
        monkeypatch.setattr(lattice, "_id_chains", refuse)
        code, out, err = run(capsys, *argv.split())
        mib = 3360 if argv.startswith("mobius") else 6720
        assert (code, out) == (2, "")
        assert err == (f"(n=8, k=2) needs about {mib} MiB for the order's closures, "
                       "over the 781 MiB that the guard of 200000 allows; "
                       "raise the guard to proceed\n")


# usage errors and help texts, pinned from the parser that spelled out every
# add_argument call, at an 80-column terminal
COUNT_USAGE = ("usage: wplat count [-h] --n N --k K [--format {text,json,csv}] [--out OUT]\n"
               "                   [--force] [--r R]\n")
BAD_INPUT_STDERR = {
    "count --n 0 --k 2": COUNT_USAGE + "wplat count: error: argument --n: must be at least 1, got 0\n",
    "count --n 3 --k 0": COUNT_USAGE + "wplat count: error: argument --k: must be at least 1, got 0\n",
    "trees --n 1 --k 2":
        "usage: wplat trees [-h] --n N --k K [--format {json,dot,text}] [--out OUT]\n"
        "                   [--force]\n"
        "wplat trees: error: argument --n: must be at least 2, got 1\n",
    "count --n 3 --k 2 --r -1": COUNT_USAGE + "wplat count: error: argument --r: must be at least 1, got -1\n",
    "count --n 3 --k 2 --r 0": COUNT_USAGE + "wplat count: error: argument --r: must be at least 1, got 0\n",
    "table --kind T --n-max -1":
        "usage: wplat table [-h] [--format {text,json,csv}] [--out OUT] [--force]\n"
        "                   --kind {T,t,s,S,bell} --n-max N_MAX [--k K]\n"
        "wplat table: error: argument --n-max: must be at least 0, got -1\n",
    "series --which exp --k 2 --order -1":
        "usage: wplat series [-h] [--format {text,json,csv}] [--out OUT] [--force]\n"
        "                    --which {exp,log} --k K --order ORDER\n"
        "wplat series: error: argument --order: must be at least 0, got -1\n",
}


@pytest.mark.parametrize("argv", list(BAD_INPUT_STDERR))
def test_bad_input_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", BAD_INPUT_STDERR[argv])


@pytest.mark.parametrize("command,digest", [
    ("", "464d5d27af27764f801b51c84f9564f49a5734bc30cac212def7ca87ff4ca76a"),
    ("count", "7087af6b7c8500fbd88ca45240f2545ae5ae6b3779768e17adb846af30d4cc2c"),
    ("table", "ccfc020a287f335ca19ff1945c448890b35f25ab28aefbde62a7fe7d76881551"),
    ("series", "95fa3c1edea74feb4fb6d27a2904a8195374d4eb783a622588ca08614c5c6c9f"),
    ("mobius", "7fe2d8cf1136e0109f6cfdb125a9ecb74c58f46c4af1a7fa195ece539a2087c9"),
    ("charpoly", "efe226828ba7bfae0b1e26be7563257a5a7b532a4511e07aaaafcfa91baec5f7"),
    ("hasse", "4b5476d8e61a3f482cb69f2be547a93b7ee3ced505c30055e646165fa78a1330"),
    ("chains", "e7590f7a7182345d935bef7338f687483e86905d449818b2fb60cfa953a3baff"),
    ("trees", "fca4814df32da0395b2e9e819588857d7ba4dbb25e1608d526cf5c5dd3016660"),
    ("verify", "d2a8a8a17e04ffec9cfbdf4a455b19a9ef7e282b401090f944cb61838a335e15"),
])
@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="argparse titled the options 'optional arguments' before 3.11")
def test_help_keeps_its_bytes(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _values(accepts):
    """Values to give an option: its choices, integers around the bounds, or
    text."""
    if isinstance(accepts, tuple):
        return list(accepts)
    return ["0", "1", "2", "3", "007", "12"] if isinstance(accepts, int) else ["out.txt", "x y"]


# tokens that make a command line other than plain, and values that argparse
# reads in its own way
JUNK = ["--n=3", "--n-m", "--n", "--k", "-1", "٣", "²", "--", "-h", "--help", "",
        "+3", " 3", "1_0", "3.0", "9" * 5000, "--force", "--forc", "all", "T", "count"]


@st_.composite
def command_lines(draw):
    """A command and its options in any order, each with one of its values,
    required ones mostly given and others about half the time, then a few
    junk tokens put in or swapped in."""
    name = draw(st_.sampled_from(list(cli._COMMANDS) + ["cnt", "-h"]))
    tokens = [name]
    if name in cli._COMMANDS:
        _, _, formats, n_min, own = cli._COMMANDS[name]
        pairs = [[flag, draw(st_.sampled_from(_values(accepts)))]
                 for flag, accepts, default in cli._shared_options(n_min, formats) + own
                 if draw(st_.integers(0, 4)) > (default is not cli._REQUIRED) * 2]
        pairs += [["--force"]] * draw(st_.integers(0, 1))
        for pair in draw(st_.permutations(pairs)):
            tokens += pair
    for at, junk, swap in draw(st_.lists(st_.tuples(
            st_.integers(0, len(tokens)), st_.sampled_from(JUNK), st_.booleans()), max_size=2)):
        tokens[at:at + swap] = [junk]
    return tokens


class TestPlainCommandLine:
    """main reads a plain command line from the command table and leaves
    every other argv to argparse; where the table reads one, it gives
    argparse's namespace."""

    @staticmethod
    def parse_both(argv):
        """The table's namespace (or None) and argparse's (or None where it
        exits), each as a dict."""
        plain = cli._read_plain(argv)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                parsed = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        return None if plain is None else vars(plain), parsed

    @given(command_lines())
    @settings(max_examples=400, deadline=None)
    def test_table_reading_is_argparse(self, argv):
        plain, parsed = self.parse_both(argv)
        assert plain is None or plain == parsed

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_every_plain_line_is_read(self, name):
        # first the required options alone, then every option and --force
        _, _, formats, n_min, own = cli._COMMANDS[name]
        options = cli._shared_options(n_min, formats) + own
        for chosen in ([o for o in options if o[2] is cli._REQUIRED], options):
            argv = [name]
            for flag, accepts, _ in chosen:
                argv += [flag, _values(accepts)[-1]]
            for tail in ([], ["--force"]):
                plain, parsed = self.parse_both(argv + tail)
                assert plain is not None and plain == parsed

    @pytest.mark.parametrize("argv", [
        "-h", "--help", "count --n 3 --k 2 -h", "cnt --n 3 --k 2",
        "count --n=3 --k 2",                      # --flag=value
        "table --kind T --n-m 4", "table --kind T --n 4",  # abbreviations
        "count --n 3 --k 2 --n 4", "count --n 3 --k 2 --force --force",  # repeats
        "count --n 3 --k 2 --out -x",             # a value that starts with -
        "count --n ٣ --k 2", "count --n ² --k 2",  # non-ASCII digits
        "count -- --n 3 --k 2", "count --n 3 --k 2 extra",
        "count --n 3", "count --n 3 --k", "count --n 3 --k 2 --bogus 1",
        "count --n 0 --k 2", "count --n 3 --k 2 --format xml",
        "count --n 3 --k 2 --format JSON",
    ])
    def test_other_lines_go_to_argparse(self, argv):
        assert cli._read_plain(argv.split()) is None

    def test_deferred_lines_still_run(self, capsys):
        want = run(capsys, "count", "--n", "3", "--k", "2")
        assert want[0] == 0
        for argv in (["count", "--n=3", "--k=2"], ["count", "--n", "٣", "--k", "2"],
                     ["count", "--n", "4", "--k", "2", "--n", "3"]):
            assert cli._read_plain(argv) is None
            assert run(capsys, *argv) == want
        # more digits than int() converts: argparse reports an invalid int
        assert cli._read_plain(["count", "--n", "9" * 5000, "--k", "2"]) is None


# stdout sha256 and exit code of every subcommand and --format, pinned from
# the output before the renderer and the guard were unified
GOLDEN = [
    ("count --n 4 --k 2", "87bdc37bdeb38cffc61fecf7303607659aa98b909498f30c106450004fe86109", 0),
    ("count --n 4 --k 2 --format json", "ee1830aac47edbe5507e215f74cbcc390defb221fc893006509c6ccafd72dc83", 0),
    ("count --n 4 --k 2 --format csv", "af791cc770a1eb1ea72679c621d3ac9abcb08dd033c14afd656e4edaf01ff689", 0),
    ("count --n 3 --k 2 --r 2", "9a36ce1fc7456293e5f7e3f416289a0ec5a51203cbe2513e293505a1f3afffeb", 0),
    ("count --n 3 --k 2 --r 2 --format json", "773a9d6390fc23f1bf2d42487ab6aa56169ce2b7936559e30669437ffca35959", 0),
    ("count --n 3 --k 2 --r 2 --format csv", "c616911436909bd4d20b902a37eda42c0cf3a6887120253b693bf37193de6816", 0),
    ("table --kind T --n-max 4 --k 2", "0e2237f17f3b49bd60f6ac21429ffb015dae970e3edce879aab0bdd76ec7118e", 0),
    ("table --kind t --n-max 4 --k 3 --format json", "0040e3ad25acbfa37f6e242234006adf5bac661cb8e8a1716bcd86d0b7539e10", 0),
    ("table --kind S --n-max 4 --format csv", "7a7023e4082741d0ee1433969775a29c4ef95478e1052cf5bcf093c4f49cd586", 0),
    ("table --kind s --n-max 4", "edab322e183f42b93b8a3733621be4d77a6657362e6129fec30fc885e9082e4d", 0),
    ("table --kind bell --n-max 4", "821efce5f3ddfd6fcb12556c05335204fc07e1fe09d5a069b3fcb4789e2c9712", 0),
    ("table --kind bell --n-max 4 --format json", "0ae135391f2a531388538bc59bc607d7d027c261b6e572278748a0d7d2f5d8ce", 0),
    ("table --kind bell --n-max 4 --format csv", "4fda90337db657baf1ccd0fd98467b6d2d4a4c71f4dff93d327e6e74a8702312", 0),
    ("series --which exp --k 2 --order 4", "2616e2dddf8fc298dad128627829c7f298a2e40914c125282d16b86d81e80fbb", 0),
    ("series --which log --k 2 --order 4 --format json", "423517d31ae9160623aeb34f3ef83740794eaadff0cda32418067553ae77de1e", 0),
    ("series --which exp --k 3 --order 4 --format csv", "237a107df32edfa3a642114db8b17ac78479f6859f2511d0c8c048e5a9a20d25", 0),
    ("mobius --n 4 --k 2", "55dc7590ce62bc9718b041eb4fe81c3a86a856b978489abb54ea1d6e5ca3c048", 0),
    ("mobius --n 4 --k 2 --method closed", "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f", 0),
    ("mobius --n 3 --k 2 --method recursive", "0f90e0b3538d04df294950dcec75952d7e07f1bb044e73e795c410d677b3c268", 0),
    ("mobius --n 3 --k 2 --method chains", "0f90e0b3538d04df294950dcec75952d7e07f1bb044e73e795c410d677b3c268", 0),
    ("charpoly --n 4 --k 2", "fb4c01df1b215b0664f8e45c9b93884be5e3f2d3fb17f37c3753c8dd50d6aa24", 0),
    ("charpoly --n 4 --k 2 --format json", "ec80d23db509c85516090fce20849c94d85d55be417200f25a44d5a41b4b74c4", 0),
    ("hasse --n 3 --k 2", "8882fe4af4166abc102c6d47161780d781ee4b7ef5bc10b3655ee798c03b4f43", 0),
    ("hasse --n 4 --k 1", "797597da8222baee07ab249a0ed0bb104005a7b43e5e96598780175fb94b5252", 0),
    ("chains --n 3 --k 2", "89e28f26acbebca0e7b356c5ef39f0d978b61d3b2ff533087936590b62479dc2", 0),
    ("chains --n 3 --k 2 --filter rising", "e441c35798d0b87c8448819997e43707ee7426635917a6654a221611a27da80d", 0),
    ("chains --n 3 --k 2 --filter decreasing --format json", "c13d2731e02d7b4bba2f28cb379b6ec1875dd5398bb68bc836109a8dbd70000e", 0),
    ("trees --n 4 --k 2", "2b36bc9761dfd6cd577e969e7f430b02ff4791561c68c27998e35380553beaa2", 0),
    ("trees --n 3 --k 2 --format dot", "5a6d3f2bfe0e80a32646681011c64d9faee53d7518700782d10d4938c73f43f6", 0),
    ("trees --n 3 --k 2 --format text", "b0564336ccab83cb0fa55f64726b2c14f563dcdfebf6e4156d3ddf3b39a1d157", 0),
    # the four structure-bearing digests (these two and the two structure
    # requests below) were re-pinned when the structure report began to read
    # the built order; their other checks kept their bytes
    ("verify --n 3 --k 2", "830287d3e47d499ad1d8a946e6adf9faa804900f60f7c53efa7721bc25c4c72b", 0),
    ("verify --n 2 --k 3 --suite el", "2325c4f9f98d390075dbde152561a3ba32ec7a65140ca16944895d7fb0fa2c39", 0),
    ("verify --n 4 --k 1 --suite bijections", "c2270c7c62034979134c14112c0ba1f7757f10465adeb6c67c019fae22886df2", 0),
    ("verify --n 1 --k 2", "358ac55cccd1e3b45f2d5ddad41ebe647f63424bb8847c5acbd6992b2c89717a", 0),
    # pinned from the enumerative EL check
    ("verify --suite el --n 4 --k 3", "3491586c270d147d2b9df759fb218d39cb3fc045736bfb7e4321ed4304f2080d", 0),
    # pinned from the order-intrinsic report, equal by JSON to the pairwise
    # scan in tests/conftest.py
    ("verify --suite structure --n 3 --k 3", "8c2a13fcdc81c14630bf73646e6509608f5d59aa6d7e1380f8cbe0409116a7b0", 0),
    ("verify --suite structure --n 4 --k 2", "c78e318713e0cd7e28faba5ab0413b8c2f671c22efdaaf153f7c172be866e4f7", 0),
    # pinned from the nested-generator tree enumeration and the all-covers
    # chain walk
    ("verify --suite bijections --n 5 --k 2", "684d37af411eb4fdf46660ba00acecf8c2d3deb8e630e2f5cdd1f2496b4701c1", 0),
    ("trees --n 5 --k 2 --format json", "4569e436eaf6416c32367bb98836144b718730101d344828f5f32bdaebd955a3", 0),
    # the bijections benchmark requests, pinned before the inverses stopped
    # calling validate on accepted input
    ("verify --suite bijections --n 4 --k 3", "89624a71c6e528f828788bc56480447f22a6751ee7bcddbd1a7ab5154bb37e09", 0),
    ("verify --suite bijections --n 5 --k 3", "f55c02b64aa7bd62c68ddb4e8db3c23103121cb896e0a72b8eff6cb30c128744", 0),
    ("trees --n 4 --k 3 --format dot", "e5885507e36ea5b5db8f3d098b7b1ccf58931b8aa78d1e78e06e2f740366ad24", 0),
    # the numbers benchmark requests, pinned from the tuple-walking
    # definition route
    ("table --kind T --n-max 22 --k 4", "f44f00ba19ad21c66b0a2bab7a3fffb41f564f0dfda6511808037add4bc8d509", 0),
    ("table --kind t --n-max 24 --k 4", "7e9e5463edb9e6432707a374118da71b70fe05e6546346042e8a1ffc49b850d6", 0),
    ("table --kind T --n-max 24 --k 2", "62d29d373e95ff6aba2ac59c562cab479de1259bbeb64ebe957fe35be3876097", 0),
    ("table --kind t --n-max 24 --k 3", "7a25a5668dd16a935d56ec5e0a6e5118fe5c403c0222d561f6688b9d7eb3896f", 0),
    ("table --kind T --n-max 20 --k 3", "30c23bfa09df407add9cdbb9d19ebc915591adcefcb283277bd325e208aa3afd", 0),
    ("series --which exp --k 4 --order 30", "06ee81e3a027ade169ccc1dcf4eebe6c99e79189d2572fc9a3e742bea4ec339a", 0),
    ("series --which log --k 4 --order 30", "1685ff0009b50b81459685442e9b101081239b626450aaf2014b76b8c99791f2", 0),
]


@pytest.mark.parametrize("argv,digest,exit_code", GOLDEN)
def test_golden_output(capsys, argv, digest, exit_code):
    code, out, _ = run(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
