import argparse
import copy
import json
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import avqsbench
from avqsbench.channels import CpMap, Instrument, MergingProtocol, OneWayLoccChannel, trivial_resource
from avqsbench.cli import _COMMANDS, _flatten, _read_plain, build_parser, main
from avqsbench.io import (
    ParseError,
    cp_map_from_dict,
    cp_map_to_dict,
    instrument_from_dict,
    instrument_to_dict,
    load_json,
    protocol_from_dict,
    protocol_to_dict,
    pure_state_from_dict,
    pure_state_to_dict,
    save_json,
    state_from_dict,
    state_set_from_dict,
    state_set_to_dict,
    state_to_dict,
)
from avqsbench.linalg import (
    bell_pair,
    maximally_mixed,
    random_density,
    state,
    tensor_product,
    trace_distance,
)
from avqsbench.rates import StateSet
from avqsbench.rate_gap import (
    build_orthogonal_family,
    family_merging_protocol,
    known_pure_state_merging,
)

from helpers import bell_werner_set, distill_bench_set

rng = np.random.default_rng(61)


@pytest.fixture
def bell_set_file(tmp_path):
    path = tmp_path / "bell_set.json"
    save_json(str(path), state_set_to_dict(StateSet((bell_pair().density(),), ("bell",))))
    return str(path)


@pytest.fixture
def two_state_file(tmp_path):
    bell = bell_pair().density()
    other = state(np.diag([0.5, 0.0, 0.5, 0.0]), (2, 2), ("A", "B"))
    path = tmp_path / "two.json"
    save_json(str(path), state_set_to_dict(StateSet((bell, other), ("bell", "prod"))))
    return str(path)


@pytest.fixture
def bell_werner_file(tmp_path):
    path = tmp_path / "bell_werner.json"
    save_json(str(path), state_set_to_dict(bell_werner_set()))
    return str(path)


@pytest.fixture
def bell_state_file(tmp_path):
    path = tmp_path / "bell.json"
    save_json(str(path), state_to_dict(bell_pair().density()))
    return str(path)


@pytest.fixture
def bell_protocol_file(tmp_path):
    path = tmp_path / "protocol.json"
    save_json(str(path), protocol_to_dict(known_pure_state_merging(bell_pair().density(), 1)))
    return str(path)


class TestRoundTrips:
    def test_state(self):
        rho = random_density([2, 3], rng, parties=("A", "B"))
        back = state_from_dict(state_to_dict(rho))
        assert trace_distance(back, rho) < 1e-12
        assert back.parties == rho.parties

    def test_pure_state(self):
        psi = bell_pair()
        back = pure_state_from_dict(pure_state_to_dict(psi))
        assert np.allclose(back.vector, psi.vector)

    def test_state_set(self):
        xs = StateSet(
            tuple(random_density([2, 2], rng, parties=("A", "B")) for _ in range(2)),
            ("first", "second"),
        )
        back = state_set_from_dict(state_set_to_dict(xs))
        assert back.labels == xs.labels
        for a, b in zip(back.members, xs.members):
            assert trace_distance(a, b) < 1e-12

    def test_instrument_and_protocol(self):
        protocol = known_pure_state_merging(bell_pair().density(), 1)
        back = protocol_from_dict(protocol_to_dict(protocol))
        assert back.blocklength == 1
        assert back.message_count == protocol.message_count
        inst = protocol.locc.a_instrument
        inst_back = instrument_from_dict(instrument_to_dict(inst))
        assert inst_back.n_outcomes == inst.n_outcomes

    def test_protocol_with_mirror_maps_is_refused(self):
        base = bell_pair().density()
        fam = build_orthogonal_family(base, 2)
        protocol = family_merging_protocol(fam, known_pure_state_merging(base, 1))
        assert protocol.mirrors
        with pytest.raises(ValueError, match="mirror maps"):
            protocol_to_dict(protocol)

    def test_cp_map(self):
        from avqsbench.channels import CpMap

        m = CpMap((np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)), (2,), (2,))
        back = cp_map_from_dict(cp_map_to_dict(m))
        assert len(back.kraus) == 2


class TestStrictParsing:
    def test_rejects_non_square_matrix(self):
        doc = {"dims": [2], "parties": ["A"], "matrix": [[1.0, 0.0]] * 3}
        with pytest.raises(ParseError, match="square"):
            state_from_dict(doc)

    def test_rejects_dims_product_mismatch(self):
        doc = {"dims": [3], "parties": ["A"], "matrix": [[0.25, 0.0]] * 16}
        with pytest.raises(ParseError, match="does not match"):
            state_from_dict(doc)

    def test_rejects_bad_pairs(self):
        doc = {"dims": [2], "parties": ["A"], "matrix": [[1.0], [0.0], [0.0], [0.0]]}
        with pytest.raises(ParseError, match="pair"):
            state_from_dict(doc)

    def test_rejects_unphysical_state(self):
        mat = np.diag([1.5, -0.5])
        doc = {
            "dims": [2],
            "parties": ["A"],
            "matrix": [[float(x.real), 0.0] for x in mat.reshape(-1)],
        }
        with pytest.raises(ParseError, match="positive semidefinite"):
            state_from_dict(doc)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"dims\": [2,,]\n}")
        with pytest.raises(ParseError, match="line 2"):
            load_json(str(path))

    def test_deeply_nested_file_names_the_path(self, tmp_path, capsys):
        # Python's json reader recurses once per nesting level
        path = tmp_path / "deep.json"
        path.write_text('{"dims": ' + "[" * 1000 + "]" * 1000 + "}")
        assert main(["rates", "--set", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: nested too deeply\n"

    def test_non_utf8_file_names_the_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dims": [2], "parties": ["\xff"]}')
        assert main(["rates", "--set", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"

    def test_repeated_key_is_refused(self, tmp_path, capsys):
        # json would keep the second "x" member and drop the Bell pair
        zero = state(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2), ("A", "B"))
        doc = state_set_to_dict(StateSet((bell_pair().density(), zero), ("x", "y")))
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc, sort_keys=True).replace('"y":', '"x":'))
        assert main(["rates", "--set", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: repeated key 'x'\n"

    def test_missing_members(self):
        with pytest.raises(ParseError, match="members"):
            state_set_from_dict({"dims": [2], "parties": ["A"], "members": {}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_entries(self, bad):
        bell = bell_pair()
        docs = {
            "state.matrix": (state_from_dict, state_to_dict(bell.density()), ["matrix"]),
            "state_set.members.bell": (
                state_set_from_dict,
                state_set_to_dict(StateSet((bell.density(),), ("bell",))),
                ["members", "bell"],
            ),
            "cp_map.kraus[0].entries": (
                cp_map_from_dict,
                cp_map_to_dict(CpMap((np.eye(2),), (2,), (2,))),
                ["kraus", 0, "entries"],
            ),
            "pure_state.amplitudes": (pure_state_from_dict, pure_state_to_dict(bell), ["amplitudes"]),
        }
        for field, (parse, doc, path) in docs.items():
            entries = doc
            for key in path:
                entries = entries[key]
            entries[1] = [0.0, bad]
            with pytest.raises(ParseError, match=rf"{re.escape(field)}\[1\]: entries must be finite"):
                parse(doc)

    @pytest.mark.parametrize(
        "bad, message",
        [("0.0", "must be numbers"), (False, "must be numbers"), (10**400, "must fit in a float")],
        ids=["string", "bool", "huge-int"],
    )
    def test_rejects_entries_that_are_not_json_numbers(self, bad, message):
        bell = bell_pair()
        docs = {
            "state.matrix": (state_from_dict, state_to_dict(bell.density()), ["matrix"]),
            "state_set.members.bell": (
                state_set_from_dict,
                state_set_to_dict(StateSet((bell.density(),), ("bell",))),
                ["members", "bell"],
            ),
            "cp_map.kraus[0].entries": (
                cp_map_from_dict,
                cp_map_to_dict(CpMap((np.eye(2),), (2,), (2,))),
                ["kraus", 0, "entries"],
            ),
            "pure_state.amplitudes": (pure_state_from_dict, pure_state_to_dict(bell), ["amplitudes"]),
        }
        for field, (parse, doc, path) in docs.items():
            entries = doc
            for key in path:
                entries = entries[key]
            entries[1] = [bad, 0.0]  # entry 1 is 0 in each document
            with pytest.raises(ParseError, match=rf"{re.escape(field)}\[1\]: entries {message}"):
                parse(doc)

    def test_rejects_sizes_that_are_not_positive_integers(self):
        with pytest.raises(ParseError, match=r"state\.dims: expected a list of positive integers"):
            state_from_dict({"dims": [True, True], "parties": ["A", "B"], "matrix": [[1.0, 0.0]]})
        one = cp_map_to_dict(CpMap((np.eye(1),)))
        one["kraus"][0].update(rows=True, cols=True)
        with pytest.raises(ParseError, match=r"kraus\[0\]: rows/cols must be positive integers"):
            cp_map_from_dict(one)
        for bad in ([True, 2], ["2"]):
            doc = cp_map_to_dict(CpMap((np.eye(2),), (2,), (2,)))
            doc["in_dims"] = bad
            with pytest.raises(ParseError, match=r"cp_map\.in_dims: expected a list of positive integers"):
                cp_map_from_dict(doc)
        doc = protocol_to_dict(known_pure_state_merging(bell_pair().density(), 1))
        doc["blocklength"] = True
        with pytest.raises(ParseError, match=r"protocol\.blocklength: must be a positive integer"):
            protocol_from_dict(doc)


class TestCliCommands:
    def test_rates_reports_bell_conditional_entropy(self, bell_set_file, capsys):
        assert main(["rates", "--set", bell_set_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["merging_cost"]["value"] == pytest.approx(-1.0, abs=1e-9)

    def test_example_gap_bell(self, capsys):
        assert main(["example-gap", "--N", "2", "--base", "builtin:bell", "--blocklength", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["gaps"]["merging"] == pytest.approx(1.0, abs=1e-6)
        assert payload["report"]["gaps"]["classical"] == pytest.approx(1.0, abs=1e-6)

    def test_example_gap_needs_no_numpy_kron(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.kron called on the example-gap path")

        monkeypatch.setattr(np, "kron", refuse)
        assert main(["example-gap", "--N", "2", "--blocklength", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["passed"] is True

    def test_robustify_check_passes(self, two_state_file, capsys):
        code = main(
            ["robustify-check", "--set", two_state_file, "--blocklength", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_robustify_check_trials(self, two_state_file, capsys):
        code = main(
            ["robustify-check", "--set", two_state_file, "--blocklength", "3", "--trials", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["random_tables"] == {"trials": 5, "failures": 0}

    def test_robustify_check_exhaustive_with_trials(self, two_state_file, capsys):
        # the exhaustive check always runs; --trials adds random tables to it
        argv = ["robustify-check", "--set", two_state_file, "--blocklength", "3"]
        assert main(argv) == 0
        alone = json.loads(capsys.readouterr().out)
        assert main(argv + ["--trials", "5"]) == 0
        both = json.loads(capsys.readouterr().out)
        assert both.pop("random_tables") == {"trials": 5, "failures": 0}
        assert both == alone

    def test_merge_fidelity(self, bell_protocol_file, bell_state_file, capsys):
        assert main(
            ["merge-fidelity", "--protocol", bell_protocol_file, "--state", bell_state_file]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_worst_case(self, bell_protocol_file, bell_set_file, capsys):
        assert main(
            [
                "worst-case",
                "--protocol",
                bell_protocol_file,
                "--set",
                bell_set_file,
                "--blocklength",
                "1",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["argmin_word"] == [0]

    def test_schur_demo_emits_csv_columns(self, bell_state_file, capsys):
        assert main(
            [
                "schur-demo",
                "--dim",
                "2",
                "--blocklength",
                "4",
                "--eta",
                "0.25",
                "--state",
                bell_state_file,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("bin_index,interval_lo,interval_hi,probability\n")
        # no field needs quoting, so each row is its fields joined by commas
        argv = ["schur-demo", "--dim", "2", "--blocklength", "4", "--eta", "0.25"]
        assert main(argv + ["--state", bell_state_file, "--format", "json"]) == 0
        bins = json.loads(capsys.readouterr().out)["bins"]
        rows = [
            f"{b['bin_index']},{b['interval_lo']!r},{b['interval_hi']!r},{b['probability']!r}\n"
            for b in bins
        ]
        assert len(rows) > 1
        assert out == "bin_index,interval_lo,interval_hi,probability\n" + "".join(rows)

    def test_csv_fields_with_commas_and_quotes_round_trip(self, tmp_path, capsys):
        import csv

        bell = bell_pair().density()
        noisy = state(0.9 * bell.matrix + 0.1 * np.eye(4) / 4, (2, 2), ("A", "B"))
        path = str(tmp_path / "comma,set.json")
        save_json(path, state_set_to_dict(StateSet((bell, noisy), ("bell", 'mixed, "noisy"'))))
        assert main(["rates", "--set", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 'mixed, "noisy"' in (doc["merging_cost"]["attained_by"], doc["classical_cost"]["attained_by"])
        assert main(["rates", "--set", path, "--csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows == [["key", "value"]] + [[key, str(value)] for key, value in _flatten(doc)]

    def test_flatten_writes_json_literals(self):
        doc = {"n": None, "t": True, "f": False, "empty": [], "obj": {}, "xs": [1, "a"], "x": 0.5}
        assert _flatten(doc) == [
            ("empty", "[]"), ("f", "false"), ("n", "null"), ("obj", "{}"), ("t", "true"),
            ("x", 0.5), ("xs.0", 1), ("xs.1", "a"),
        ]

    @pytest.mark.parametrize(
        "make_set, expected",
        [
            # a zero witness skips the restarts, so no stop reason is recorded
            (
                lambda: distill_bench_set(0),
                {"report.metadata.outer_stop_reasons": "[]", "report.metadata.inner_certified": "true"},
            ),
            (bell_werner_set, {"report.metadata.zero_witness": "null"}),
        ],
        ids=["witness", "no-witness"],
    )
    def test_distill_capacity_csv_reads_as_json(self, tmp_path, capsys, make_set, expected):
        import csv

        path = str(tmp_path / "set.json")
        save_json(path, state_set_to_dict(make_set()))
        argv = ["distill-capacity", "--set", path, "--restarts", "2", "--maxiter", "50", "--csv"]
        assert main(argv) == 0
        rows = dict(csv.reader(capsys.readouterr().out.splitlines()))
        assert {key: rows[key] for key in expected} == expected
        assert not {"None", "True", "False"} & set(rows.values())

    def test_schur_demo_json_format(self, bell_state_file, capsys):
        assert main(
            [
                "schur-demo",
                "--dim",
                "2",
                "--blocklength",
                "4",
                "--eta",
                "0.25",
                "--state",
                bell_state_file,
                "--format",
                "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(row["probability"] for row in payload["bins"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_schur_demo_long_blocklength(self, bell_state_file, capsys):
        argv = ["schur-demo", "--dim", "2", "--blocklength", "200", "--eta", "0.1"]
        assert main(argv + ["--state", bell_state_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(row["probability"] for row in payload["bins"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_schur_demo_narrow_bins_stay_cheap(self, bell_state_file, capsys):
        # 10^9 bins of width 1e-9: no per-bin storage
        argv = ["schur-demo", "--dim", "2", "--blocklength", "4", "--eta", "1e-9"]
        start = time.perf_counter()
        assert main(argv + ["--state", bell_state_file, "--format", "json"]) == 0
        assert time.perf_counter() - start < 0.5
        payload = json.loads(capsys.readouterr().out)
        assert sum(row["probability"] for row in payload["bins"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", ["inf", "1e-300", "1e-320", "5e-324"])
    def test_schur_demo_refuses_infinite_and_sub_slack_bins(self, bell_state_file, capsys, eta):
        # below the 1e-9 floor a bin lookup would walk ~1e-12 / eta bins of boundary slack
        argv = ["schur-demo", "--dim", "2", "--blocklength", "4", "--eta", eta]
        start = time.perf_counter()
        assert main(argv + ["--state", bell_state_file]) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bin width must be finite and at least 1e-09 bits, got {float(eta)}\n"

    def test_distill_capacity(self, bell_set_file, capsys):
        code = main(
            [
                "distill-capacity",
                "--set",
                bell_set_file,
                "--k",
                "1",
                "--outcomes",
                "2",
                "--restarts",
                "1",
                "--maxiter",
                "10",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["value"] >= 1.0 - 1e-6
        assert payload["report"]["quantity"] == "distillation-rate-lower-bound"
        assert "identity" not in payload["report"]["metadata"]

    def test_distill_capacity_never_below_the_free_zero(self, tmp_path, capsys):
        path = str(tmp_path / "set.json")
        save_json(path, state_set_to_dict(distill_bench_set(52000)))
        argv = ["distill-capacity", "--set", path, "--k", "1", "--outcomes", "2"]
        assert main(argv + ["--restarts", "2", "--seed", "52000"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["value"] >= -1e-12
        assert report["metadata"]["candidate"] == "trace-and-replace"

    def test_distill_capacity_k2_with_fewer_outcomes_than_d_a_squared(self, tmp_path, capsys):
        path = str(tmp_path / "set.json")
        save_json(path, state_set_to_dict(distill_bench_set(52000)))
        argv = ["distill-capacity", "--set", path, "--k", "2", "--outcomes", "2"]
        assert main(argv + ["--restarts", "2", "--seed", "1", "--maxiter", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["value"] >= -1e-12
        assert instrument_from_dict(payload["instrument"]).n_outcomes == 1


class TestCliExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        assert main(["rates", "--set", "/nonexistent/file.json"]) == 2

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["rates", "--set", str(path)]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_cap_violation_exit_code(self, bell_set_file, capsys):
        code = main(["rates", "--set", bell_set_file, "--dim-cap", "2"])
        assert code == 3

    def test_word_cap_violation_exit_code(self, bell_protocol_file, two_state_file, capsys):
        argv = ["worst-case", "--protocol", bell_protocol_file, "--set", two_state_file]
        assert main(argv + ["--blocklength", "13"]) == 3
        assert "enumeration cap" in capsys.readouterr().err

    def test_robustify_word_cap_message(self, two_state_file, capsys):
        assert main(["robustify-check", "--set", two_state_file, "--blocklength", "13"]) == 3
        err = capsys.readouterr().err
        assert err == "resource cap: 8192 words exceed the enumeration cap of 4096 in robustify-check\n"

    def test_schur_demo_frame_work_cap_exit_code(self, bell_state_file, capsys):
        # passes every other cap; without the frame-work cap it ran for minutes
        argv = ["schur-demo", "--dim", "2", "--blocklength", "100000", "--eta", "0.1"]
        start = time.perf_counter()
        assert main(argv + ["--state", bell_state_file]) == 3
        assert time.perf_counter() - start < 1.0
        assert "frame-table terms" in capsys.readouterr().err

    def test_word_dimension_cap_exit_code(self, tmp_path, two_state_file, capsys):
        # l=2 protocol with trivial resources: only the 16-dimensional word
        # states exceed --dim-cap 15, not anything loaded from the files; the
        # purification of the rank-4 word needs 64
        discard = Instrument((CpMap(tuple(np.eye(4)[i : i + 1] for i in range(4)), (1, 2, 2), (1,)),))
        keep = CpMap((np.kron(np.eye(4)[:, :1], np.eye(4)),), (1, 2, 2), (1, 2, 2, 2, 2))
        protocol = MergingProtocol(
            OneWayLoccChannel(discard, (keep,)), trivial_resource(), trivial_resource(), 2
        )
        path = str(tmp_path / "protocol_l2.json")
        save_json(path, protocol_to_dict(protocol))
        argv = ["worst-case", "--protocol", path, "--set", two_state_file, "--blocklength", "2"]
        assert main(argv + ["--dim-cap", "15"]) == 3
        assert "word states" in capsys.readouterr().err
        assert main(argv + ["--dim-cap", "64"]) == 0

    def test_worst_case_refuses_source_factors_beyond_the_protocol(
        self, tmp_path, bell_protocol_file, bell_set_file, capsys
    ):
        # Bell x I/2 with parties A, B, B: the third factor is source, not environment
        member = tensor_product(bell_pair().density(), maximally_mixed(2, "B"))
        path = str(tmp_path / "bell_mixed.json")
        save_json(path, state_set_to_dict(StateSet((member,), ("bell_mixed",))))
        argv = ["worst-case", "--protocol", bell_protocol_file, "--blocklength"]
        assert main(argv + ["1", "--set", path]) == 2
        assert "source state" in capsys.readouterr().err
        # two-letter words for the l=1 protocol: the second copy is source too
        for extra in ([], ["--sample", "3"]):
            assert main(argv + ["2", "--set", bell_set_file] + extra) == 2
            assert "source state" in capsys.readouterr().err

    def test_distill_outcome_count_is_capped(self, two_state_file, capsys):
        # 9 outcomes on a qubit sending side search an isometry of 18 rows,
        # over --dim-cap 16, though every state fits
        argv = ["distill-capacity", "--set", two_state_file, "--outcomes", "9", "--dim-cap", "16"]
        assert main(argv + ["--restarts", "1", "--maxiter", "10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap: ") and err.count("\n") == 1
        assert "distillation instrument search" in err

    def test_worst_case_sample_over_the_word_cap_exits_3(
        self, bell_protocol_file, bell_set_file, capsys
    ):
        argv = ["worst-case", "--protocol", bell_protocol_file, "--set", bell_set_file,
                "--blocklength", "1", "--sample"]
        assert main(argv + ["4097"]) == 3
        assert capsys.readouterr().err == (
            "resource cap: 4097 sampled words exceed the enumeration cap of 4096 in worst-case\n"
        )

    @pytest.mark.parametrize("l", ["-2", "0"])
    def test_robustify_blocklength_below_one_is_usage_error(self, l, two_state_file, capsys):
        assert main(["robustify-check", "--set", two_state_file, "--blocklength", l]) == 2
        assert capsys.readouterr().err == f"error: blocklength must be >= 1, got {l} in robustify-check\n"

    @pytest.mark.parametrize("extra", [[], ["--sample", "3"]], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("l", ["-1", "0"])
    def test_worst_case_blocklength_below_one_is_usage_error(
        self, l, extra, bell_protocol_file, bell_set_file, capsys
    ):
        argv = ["worst-case", "--protocol", bell_protocol_file, "--set", bell_set_file]
        assert main(argv + ["--blocklength", l] + extra) == 2
        assert capsys.readouterr().err == f"error: blocklength must be >= 1, got {l} in worst-case\n"

    @pytest.mark.parametrize("outcomes", ["0", "-1"])
    def test_outcomes_below_one_are_usage_errors(self, outcomes, two_state_file, capsys):
        assert main(["distill-capacity", "--set", two_state_file, "--outcomes", outcomes]) == 2
        assert "n_outcomes" in capsys.readouterr().err

    def test_verification_failure_exit_code(self, monkeypatch, capsys):
        import avqsbench.cli as cli_module

        class FailingReport:
            passed = False

            def to_dict(self):
                return {"passed": False}

        monkeypatch.setattr(cli_module, "rate_gap_report", lambda *a, **k: FailingReport())
        code = main(["example-gap", "--N", "2", "--base", "builtin:bell"])
        assert code == 1

    def test_non_finite_inputs_are_usage_errors(self, tmp_path, bell_state_file, capsys):
        # Python's json module reads NaN, which passes every tolerance check
        doc = state_to_dict(bell_pair().density())
        doc["matrix"][1] = [float("nan"), 0.0]
        path = tmp_path / "nan_state.json"
        path.write_text(json.dumps(doc))
        schur = ["schur-demo", "--dim", "2", "--blocklength", "4"]
        assert main(schur + ["--eta", "0.25", "--state", str(path)]) == 2
        assert "matrix[1]: entries must be finite" in capsys.readouterr().err
        nan_set = tmp_path / "nan_set.json"
        nan_set.write_text(json.dumps({**doc, "members": {"x": doc.pop("matrix")}}))
        assert main(["rates", "--set", str(nan_set)]) == 2
        assert "members.x[1]: entries must be finite" in capsys.readouterr().err
        assert main(schur + ["--eta", "nan", "--state", bell_state_file]) == 2
        assert "bin width must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("entry", "0.0", "matrix[1]: entries must be numbers"),
            ("entry", False, "matrix[1]: entries must be numbers"),
            ("entry", 10**400, "matrix[1]: entries must fit in a float"),
            ("dims", [True, True], "dims: expected a list of positive integers"),
        ],
        ids=["string", "bool", "huge-int", "bool-dims"],
    )
    def test_entries_and_dims_that_are_not_json_numbers_are_usage_errors(
        self, tmp_path, capsys, field, bad, message
    ):
        doc = state_to_dict(bell_pair().density())
        if field == "entry":
            doc["matrix"][1] = [bad, 0.0]
            argv = ["schur-demo", "--dim", "2", "--blocklength", "4", "--eta", "0.25", "--state"]
        else:
            doc.update(dims=bad, members={"x": [[1.0, 0.0]]})
            argv = ["rates", "--set"]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_tolerance_override(self, bell_set_file, capsys):
        # tolerances are constants and cutoffs are read off the values: no
        # former setting can be given, nor any other name
        names = ("herm_tol", "psd_tol", "trace_tol", "close_tol", "tp_tol", "eig_clip",
                 "rank_tol", "prob_tol", "nonsense")
        for name in names:
            assert main(["rates", "--set", bell_set_file, "--tol", f"{name}=1e-12"]) == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["example-gap", "--N", "2", "--blocklength", "0"],
            ["example-gap", "--N", "2", "--blocklength", "-1"],
            ["worst-case", "--protocol", "{protocol}", "--set", "{set}", "--blocklength", "1",
             "--sample", "0"],
            ["rates", "--set", "{set}", "--dim-cap", "0"],
            ["distill-capacity", "--set", "{set}", "--restarts", "0"],
            ["distill-capacity", "--set", "{set}", "--maxiter", "0"],
            ["robustify-check", "--set", "{set}", "--blocklength", "2", "--trials", "-1"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
    )
    def test_out_of_range_values_are_usage_errors(
        self, argv, two_state_file, bell_protocol_file, capsys
    ):
        files = {"set": two_state_file, "protocol": bell_protocol_file}
        assert main([a.format(**files) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_typed_kraus_list_exits_2_in_a_fresh_process(self, tmp_path, bell_state_file):
        doc = protocol_to_dict(known_pure_state_merging(bell_pair().density(), 1))
        doc["locc"]["b_channels"][0]["kraus"] = 5
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "avqsbench.cli", "merge-fidelity", "--protocol", str(path),
             "--state", bell_state_file],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stderr == f"error: {path}.locc.b_channels[0].kraus: expected a list\n"
        assert "Traceback" not in out.stderr


# one value of each JSON type, substituted for every node of a valid document
JSON_VALUES = {"string": "x", "boolean": True, "null": None, "number": 5, "list": [], "object": {}}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def _nodes(value, keys=()):
    """(key path, value) of the document and of every container and leaf in it."""
    yield keys, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, keys + (key,))


def _replaced(value, keys, new):
    """A copy of ``value`` with the node at ``keys`` replaced by ``new``."""
    if not keys:
        return new
    out = copy.copy(value)
    out[keys[0]] = _replaced(value[keys[0]], keys[1:], new)
    return out


def _wrong_typed(doc, root: str):
    """(field path, document) for every node of ``doc`` replaced by a value
    of each other JSON type."""
    for keys, value in list(_nodes(doc)):
        path = root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        for kind, new in JSON_VALUES.items():
            if kind != _json_type(value):
                yield path, _replaced(doc, keys, new)


def _names_the_field(message: str, path: str) -> bool:
    """The message starts with the substituted field or one of its containers."""
    named = message.split(": ", 1)[0]
    return path.startswith(named) and path[len(named) : len(named) + 1] in ("", ".", "[")


class TestWrongTypeSweep:
    """Every wrong-typed field of a valid document is refused at the file
    boundary: exit 2, one line naming the file and the field."""

    def test_every_wrong_typed_field_of_a_cli_input_exits_2(
        self, tmp_path, bell_state_file, bell_protocol_file, capsys
    ):
        bell = bell_pair().density()
        readers = [
            (state_to_dict(bell), ["merge-fidelity", "--protocol", bell_protocol_file, "--state"]),
            (state_set_to_dict(StateSet((bell,), ("bell",))), ["rates", "--set"]),
            (
                protocol_to_dict(known_pure_state_merging(bell, 1)),
                ["merge-fidelity", "--state", bell_state_file, "--protocol"],
            ),
        ]
        bad = tmp_path / "bad.json"
        failures = []
        cases = 0
        for doc, argv in readers:
            for field, changed in _wrong_typed(doc, str(bad)):
                bad.write_text(json.dumps(changed))
                cases += 1
                try:
                    code = main(argv + [str(bad)])
                except Exception as exc:  # an escape: a traceback and exit 1 from the shell
                    code = repr(exc)
                err = capsys.readouterr().err
                lines = err.splitlines()
                ok = code == 2 and len(lines) == 1 and lines[0].startswith(f"error: {bad}")
                if not (ok and _names_the_field(lines[0][len("error: ") :], field)):
                    failures.append((field, json.dumps(changed)[:60], code, err[-200:]))
        assert cases > 1000
        assert not failures, f"{len(failures)} of {cases} cases: {failures[:5]}"

    def test_every_wrong_typed_field_of_an_instrument_or_cp_map_is_named(self):
        locc = known_pure_state_merging(bell_pair().density(), 1).locc
        readers = [
            (instrument_from_dict, instrument_to_dict(locc.a_instrument), "instrument"),
            (cp_map_from_dict, cp_map_to_dict(locc.b_channels[0]), "cp_map"),
        ]
        failures = []
        for parse, doc, root in readers:
            for field, changed in _wrong_typed(doc, root):
                try:
                    parse(changed)
                    failures.append((field, "accepted"))
                except ParseError as exc:
                    if not _names_the_field(str(exc), field):
                        failures.append((field, str(exc)))
                except Exception as exc:
                    failures.append((field, repr(exc)))
        assert not failures, f"{len(failures)} cases: {failures[:5]}"


# one argv per subcommand, touching each of its options
REPRESENTATIVE_ARGV = {
    "rates": ["--set", "s.json", "--hull", "--csv", "--dim-cap", "64"],
    "distill-capacity": ["--set", "s.json", "--k", "2", "--outcomes", "3", "--restarts", "2",
                         "--maxiter", "9", "--seed", "4"],
    "worst-case": ["--protocol", "p.json", "--set", "s.json", "--blocklength", "2",
                   "--sample", "5", "--format", "json"],
    "merge-fidelity": ["--protocol", "p.json", "--state", "r.json", "--dim-cap", "64"],
    "schur-demo": ["--dim", "2", "--blocklength", "6", "--eta", "0.25", "--state", "r.json"],
    "robustify-check": ["--set", "s.json", "--blocklength", "3", "--trials", "2"],
    "example-gap": ["--N", "3", "--base", "r.json", "--blocklength", "2", "--format", "csv"],
}


def _flag_units(command, argv):
    """``argv`` after the command, split into one list per flag and its value."""
    bare = {flag for flag, spec in _COMMANDS[command][1] if "action" in spec}
    bare |= {"--csv"}
    units, rest = [], list(argv)
    while rest:
        take = 1 if rest[0] in bare else 2
        units.append(rest[:take])
        rest = rest[take:]
    return units


def _plain_corpus(command):
    """Plain command lines for ``command``: the representative one, shuffled,
    with every flag repeated, with the dimension cap and formats stacked, and
    with the required flags alone."""
    argv = REPRESENTATIVE_ARGV[command]
    units = _flag_units(command, argv)
    shuffle = random.Random(command)
    corpus = [argv, argv + argv]
    for _ in range(3):
        shuffle.shuffle(units)
        corpus.append([a for unit in units for a in unit])
    corpus += [
        argv + ["--dim-cap", "64", "--dim-cap", "128"],
        argv + ["--csv", "--format", "json"],
        argv + ["--format", "json", "--csv"],
        argv + ["--seed", "0", "--seed", "12"],
    ]
    required = [flag for flag, spec in _COMMANDS[command][1] if spec.get("required")]
    corpus.append([a for unit in units if unit[0] in required for a in unit])
    if command == "rates":
        plain = [a for unit in units if unit[0] != "--hull" for a in unit]
        corpus += [plain, ["--hull", *plain, "--hull"]]
    return [[command, *a] for a in corpus]


def _parse_with_argparse(argv, capsys):
    """(exit code, stdout, stderr) of parsing ``argv`` with the parser ``main`` builds."""
    try:
        build_parser(argv[0] if argv[0] in _COMMANDS else None).parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = 2 if exc.code not in (0, None) else 0
    out, err = capsys.readouterr()
    return code, out, err


class TestCliParser:
    def test_a_subcommand_run_builds_only_its_own_parser(
        self, monkeypatch, bell_state_file, capsys
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["schur-demo", "--dim", "2", "--blocklength", "4", "--eta", "0.25",
                "--state", bell_state_file]
        assert main(argv) == 0
        assert built == []
        # a usage error goes through argparse, with its own subcommand's parser only
        assert main(argv + ["--dim", "x"]) == 2
        assert 1 <= len(built) <= 2, built

    @pytest.mark.parametrize("command", list(REPRESENTATIVE_ARGV))
    def test_plain_reader_agrees_with_argparse(self, command):
        for argv in _plain_corpus(command):
            plain = _read_plain(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(build_parser(command).parse_args(argv)), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--set", "s.json", "--block", "2"],
            ["example-gap", "--N", "1", "--seed=3"],
            ["example-gap", "-h"],
            ["example-gap", "--version"],
            ["-h"],
            ["--version"],
            ["merge-fidelity", "--protocol", "p.json", "--state", "r.json", "--bogus"],
            ["rates", "--hull"],
            ["rates", "--set", "-s.json"],
            ["distill-capacity", "--set", "s.json", "--k", "3"],
            ["example-gap", "--N", "x"],
            ["rates", "--set", "s.json", "--hull=yes"],
            ["robustify-check", "--set", "s.json", "--blocklength", "2", "--exhaustive"],
        ],
        ids=" ".join,
    )
    def test_every_other_command_line_goes_through_argparse(self, argv, capsys):
        assert _read_plain(argv) is None
        expected = _parse_with_argparse(argv, capsys)
        if expected == (0, "", ""):
            # argparse accepts it: the run matches the same line written plainly
            plain = [a for arg in argv for a in arg.split("=")]
            assert _read_plain(plain) is not None
            expected = (main(plain), *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected

    @pytest.mark.parametrize("command", list(REPRESENTATIVE_ARGV))
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        assert main([command, *REPRESENTATIVE_ARGV[command], "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"avqsbench {command}: error: argument --seed: must be >= 0, got -1\n")

    @pytest.mark.parametrize(
        "command, usage",
        [
            (
                "rates",
                "usage: avqsbench rates [-h] [--seed SEED] [--format {json,csv}] [--csv]\n"
                "                       [--dim-cap DIM_CAP] --set SET_PATH [--hull]\n",
            ),
            (
                "merge-fidelity",
                "usage: avqsbench merge-fidelity [-h] [--seed SEED] [--format {json,csv}]\n"
                "                                [--csv] [--dim-cap DIM_CAP] --protocol\n"
                "                                PROTOCOL_PATH --state STATE_PATH\n",
            ),
        ],
    )
    def test_unknown_flags_after_a_command_get_its_usage(self, command, usage, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, *REPRESENTATIVE_ARGV[command], "--bogus"]) == 2
        error = f"avqsbench {command}: error: unrecognized arguments: --bogus\n"
        assert capsys.readouterr() == ("", usage + error)

    @pytest.mark.parametrize("command", list(REPRESENTATIVE_ARGV))
    def test_one_command_parser_agrees_with_the_full_one(self, command, capsys):
        argv = [command, *REPRESENTATIVE_ARGV[command]]
        alone, full = build_parser(command), build_parser()
        assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv))
        assert alone.format_usage() == full.format_usage()
        helps = []
        for parser in (alone, full):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert f"usage: avqsbench {command} [-h]" in helps[0]

    def test_top_level_help_and_version(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in REPRESENTATIVE_ARGV:
            assert f"\n    {command} " in out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == avqsbench.__version__


class TestCliDeterminism:
    def _capture(self, argv, capsys) -> str:
        assert main(argv) in (0, 1)
        return capsys.readouterr().out

    def test_repeat_invocations_are_byte_identical(
        self, bell_set_file, two_state_file, bell_state_file, bell_protocol_file, capsys
    ):
        invocations = [
            ["rates", "--set", bell_set_file, "--seed", "7"],
            ["rates", "--set", two_state_file, "--hull", "--seed", "7"],
            ["example-gap", "--N", "2", "--blocklength", "1", "--seed", "7"],
            [
                "distill-capacity",
                "--set",
                bell_set_file,
                "--restarts",
                "1",
                "--maxiter",
                "5",
                "--seed",
                "7",
            ],
            [
                "robustify-check",
                "--set",
                two_state_file,
                "--blocklength",
                "3",
                "--trials",
                "3",
                "--seed",
                "7",
            ],
            [
                "schur-demo",
                "--dim",
                "2",
                "--blocklength",
                "4",
                "--eta",
                "0.25",
                "--state",
                bell_state_file,
                "--format",
                "json",
                "--seed",
                "7",
            ],
            [
                "worst-case",
                "--protocol",
                bell_protocol_file,
                "--set",
                bell_set_file,
                "--blocklength",
                "1",
                "--seed",
                "7",
            ],
            [
                "merge-fidelity",
                "--protocol",
                bell_protocol_file,
                "--state",
                bell_state_file,
                "--seed",
                "7",
            ],
        ]
        for argv in invocations:
            first = self._capture(argv, capsys)
            second = self._capture(argv, capsys)
            assert first == second, f"nondeterministic output for {argv}"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # loading the CLI must not pay for importing scipy.optimize
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, avqsbench.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_plain_run_loads_no_argparse():
    # a plain run is read from the command table: building argparse's parser
    # and its first message lookup, which imports locale, are per-process costs
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, contextlib, io; import avqsbench.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = c.main(['example-gap', '--N', '2'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"


def test_example_gap_leaves_numpy_ma_unloaded():
    # numpy.ma (pulled in by np.unique) costs tens of milliseconds per process
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, contextlib, io; from avqsbench.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['example-gap', '--N', '2', '--blocklength', '3'])\n"
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False"


def test_unseeded_commands_leave_numpy_random_unloaded(two_state_file, bell_state_file):
    # numpy.random loads lazily in numpy 2 and costs about 17 ms per process
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    argvs = [
        ["schur-demo", "--dim", "2", "--blocklength", "6", "--eta", "0.25",
         "--state", bell_state_file],
        ["robustify-check", "--set", two_state_file, "--blocklength", "3"],
        ["example-gap", "--N", "3", "--blocklength", "2"],
        # (I/2) x |0><0| is B-extendible, so the seeded search is skipped
        ["distill-capacity", "--set", two_state_file],
    ]
    probe = (
        "import sys, json, contextlib, io; from avqsbench.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[0, 0, 0, 0] False"


def test_import_generates_no_class_code():
    # the package's types are written out in the source: importing it neither
    # loads dataclasses or fractions nor makes any dataclass
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import inspect, sys, avqsbench.cli\n"
        "mods = [m for name, m in list(sys.modules.items()) if name.startswith('avqsbench')]\n"
        "generated = [c.__name__ for m in mods for c in vars(m).values()\n"
        "             if inspect.isclass(c) and hasattr(c, '__dataclass_fields__')]\n"
        "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)), generated)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] []"


SCIPY_BLOCKED_DISTILL = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
from avqsbench.cli import main
code = main(["distill-capacity", "--set", sys.argv[1], "--restarts", "2", "--seed", "5"])
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
sys.exit(code)
"""


def test_distill_capacity_runs_with_scipy_blocked(bell_werner_file):
    # a set with no zero witness, so the restarts run
    src = os.path.dirname(os.path.dirname(os.path.abspath(avqsbench.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_DISTILL, bell_werner_file],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)["report"]
    assert report["metadata"]["trivial_baseline"] - 1e-9 <= report["value"] <= 1.0 + 1e-9
    assert len(report["metadata"]["outer_stop_reasons"]) == 2
