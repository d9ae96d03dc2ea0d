"""CLI behavior: subcommands, exit codes, JSON stability, dataset emission."""

import hashlib
import json
import time

import pytest

from sgdgs.certify import certify_tree
from sgdgs.cli import main
from sgdgs.search import enumerate_signings
from sgdgs.sgraph import format_sg, parse_sg, read_sg
from sgdgs.datasets import remark1_pair


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.sg"
    path.write_text("4 3\n1 2 +1\n2 3 +1\n3 4 +1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_dataset_example1(capsys):
    code, out, _ = run(capsys, "certify", "--dataset", "example1-poly")
    assert code == 0
    assert "Certified-DGS" in out
    assert "261502945" in out


def test_certify_dataset_example1_json(capsys):
    code, out, _ = run(capsys, "certify", "--dataset", "example1-poly", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Certified-DGS"
    assert payload["s"] == 261502945
    assert payload["s_factors"] == [[5, 1], [11, 1], [4754599, 1]]
    # byte-identical across runs
    code2, out2, _ = run(capsys, "certify", "--dataset", "example1-poly", "--json")
    assert out == out2


def test_certify_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "certify", "nonexistent.sg")
    assert code == 1
    assert "error" in err


def test_certify_file_not_certified_still_exit_0(capsys, p4_file):
    code, out, _ = run(capsys, "certify", p4_file)
    assert code == 0
    assert "Not-Certified" in out


def test_certify_poly_file(capsys, tmp_path):
    poly = tmp_path / "phi.poly"
    poly.write_text("-1 0 16 0 -79 0 157 0 -143 0 63 0 -13 0 1\n")
    code, out, _ = run(capsys, "certify", "--poly", str(poly))
    assert code == 0 and "Certified-DGS" in out


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_spectra_subcommand(capsys, p4_file):
    code, out, _ = run(capsys, "spectra", p4_file)
    assert code == 0
    assert "controllable      : False" in out
    code, out, _ = run(capsys, "spectra", p4_file, "--json")
    payload = json.loads(out)
    assert payload["adjacency_charpoly"]["coefficients"] == [1, 0, -3, 0, 1]
    assert payload["balanced"] is True


def test_recover_q_datasets(capsys):
    code, out, _ = run(capsys, "recover-q", "dataset:remark1-a", "dataset:remark1-b")
    assert code == 0
    assert "BlockDiagonal" in out
    assert "/7" in out
    code, out, _ = run(
        capsys, "recover-q", "dataset:remark1-a", "dataset:remark1-b", "--json"
    )
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["classification"] == "BlockDiagonal"
    assert payload["q"][0][0] == "-1/7"


def test_recover_q_uncontrollable_exit_1(capsys, p4_file):
    code, _, err = run(capsys, "recover-q", p4_file, p4_file)
    assert code == 1
    assert "controllable" in err


def test_verify_structure_remark2(capsys):
    code, out, _ = run(capsys, "verify-structure", "dataset:remark2-a", "dataset:remark2-b")
    assert code == 0
    assert "passed: False" in out
    assert "reducible" in out
    assert "General" in out


def test_verify_lemma34(capsys):
    code, out, _ = run(capsys, "verify-lemma34", "dataset:remark1-a")
    assert code == 0
    assert "passed: True" in out


def test_search_mates_small(capsys, tmp_path):
    path = tmp_path / "k2.sg"
    path.write_text("2 1\n1 2 +1\n")
    code, out, _ = run(capsys, "search-mates", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates_scanned"] == 2  # both signings of the 2-path
    assert payload["mates"] == []


def test_exhaustive_check_cli(capsys):
    code, out, _ = run(capsys, "exhaustive-check", "--n", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_trees"] == 0
    assert payload["all_ok"] is True


def test_dataset_show_and_emit(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "dataset", "remark1", "--emit")
    assert code == 0
    g, h = remark1_pair()
    assert read_sg(tmp_path / "remark1-a.sg") == g
    assert read_sg(tmp_path / "remark1-b.sg") == h
    # emitted files round-trip to identical adjacency matrices
    assert parse_sg(format_sg(g)).adjacency() == g.adjacency()


def test_dataset_unknown_exit_1(capsys):
    code, out, err = run(capsys, "dataset", "nope")
    assert code == 1
    assert out == ""
    assert err == "error: unknown dataset 'nope'; available: example1-poly, remark1, remark2\n"


def test_dataset_example1_emit(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "dataset", "example1-poly", "--emit")
    assert code == 0
    text = (tmp_path / "example1-poly.poly").read_text().strip()
    assert text == "-1 0 16 0 -79 0 157 0 -143 0 63 0 -13 0 1"


def test_certify_dataset_remark1_tree(capsys):
    code, out, _ = run(capsys, "certify", "--dataset", "remark1")
    assert code == 0
    assert "Not-Certified" in out and "7^2 * 347 * 357175051" in out


def test_spectra_matrix_ingestion(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    mat.write_text("3 3\n0 1 0\n1 0 -1\n0 -1 0\n")
    code, out, _ = run(capsys, "spectra", "--matrix", str(mat), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["controllable"] is True
    assert payload["walk_matrix_det"] == 4


def test_exhaustive_check_resource_guard(capsys, monkeypatch):
    monkeypatch.delenv("SPECTRAL_MAX_N", raising=False)  # default guard: 10
    code, out, err = run(capsys, "exhaustive-check", "--n", "12")
    assert code == 1
    assert "resource guard" in err
    assert out == ""


def test_exhaustive_check_within_guard(capsys):
    code, out, _ = run(capsys, "exhaustive-check", "--n", "12", "--max-n", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_trees"] == 3
    assert payload["all_ok"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6f95a1590750f0c42abeabe685040e3e9716d0c5349954cc0d7209bbf4b7ee6"
    )


def test_exhaustive_check_n14_census_and_work_counts(capsys, monkeypatch):
    """The pinned n = 14 census: 36 certified trees in 31 charpoly classes.
    Only the 180 trees with a perfect matching are certified, once each,
    and each class's signings are bucketed once: 36 candidate trees x 2^13
    signings."""
    import sgdgs.cli as cli_mod
    import sgdgs.search as search_mod

    certify_calls = []
    signings = []

    def counting_certify(tree):
        cert = certify_tree(tree)
        certify_calls.append((tree, cert))
        return cert

    def counting_signings(tree):
        for g in enumerate_signings(tree):
            signings.append(None)
            yield g

    monkeypatch.setattr(cli_mod, "certify_tree", counting_certify)
    monkeypatch.setattr(search_mod, "certify_tree", counting_certify)
    monkeypatch.setattr(search_mod, "enumerate_signings", counting_signings)
    start = time.time()
    code, out, _ = run(capsys, "exhaustive-check", "--n", "14", "--max-n", "14", "--json")
    elapsed = time.time() - start
    assert code == 0
    # the report trees are the certified trees, in pool order (the screen
    # certifies the matched trees in pool order)
    results = json.loads(out)["results"]
    certified = [(tree, cert) for tree, cert in certify_calls if cert.certified]
    assert [r["edges"] for r in results] == [[list(e) for e in t.edges] for t, _ in certified]
    # five certified phi classes hold two trees each: both trees are
    # reported, each scanning the class's 2 x 2^13 signings
    paired = [(r, cert) for r, (_, cert) in zip(results, certified)
              if r["signings_scanned"] == 16_384]
    assert len(paired) == 10
    by_phi = {}
    for r, cert in paired:
        by_phi.setdefault(cert.charpoly, []).append(r["edges"])
    assert len(by_phi) == 5
    assert all(len(trees) == 2 and trees[0] != trees[1] for trees in by_phi.values())
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a8afd8e1e2afaabae98bb690d47dc75509ebcca0b2d452205cb506db463ca3c3"
    )
    assert len(certify_calls) == 180
    assert len(signings) == 294_912
    assert elapsed < 60.0


def test_one_vertex_tree_exit_0(capsys, tmp_path):
    path = tmp_path / "one.sg"
    path.write_text("1 0\n")
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 0
    assert "verdict          : Not-Certified(odd order)" in out
    code, out, _ = run(capsys, "exhaustive-check", "--n", "1", "--max-n", "1")
    assert code == 0
    assert out == "no certified trees on 1 vertices; nothing to check\n"


def test_max_n_env_mirror(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_MAX_N", "4")
    code, _, err = run(capsys, "search-mates", "dataset:remark1-a")
    assert code == 1
    assert "max-n" in err or "resource guard" in err


def test_max_n_only_on_enumerating_commands(capsys, monkeypatch):
    monkeypatch.delenv("SPECTRAL_MAX_N", raising=False)
    _, expected, _ = run(capsys, "certify", "--dataset", "example1-poly")
    monkeypatch.setenv("SPECTRAL_MAX_N", "abc")
    # certify never reads the guard, so a bad value cannot stop it
    code, out, err = run(capsys, "certify", "--dataset", "example1-poly")
    assert (code, out, err) == (0, expected, "")
    # the enumerating commands reject it as a usage error
    code, out, err = run(capsys, "exhaustive-check", "--n", "4")
    assert code == 1
    assert out == ""
    assert "invalid int value: 'abc'" in err and "Traceback" not in err
    monkeypatch.delenv("SPECTRAL_MAX_N")
    code, _, err = run(capsys, "certify", "--dataset", "example1-poly", "--max-n", "3")
    assert code == 1
    assert "unrecognized arguments: --max-n" in err


def test_internal_invariant_exit_2(capsys, monkeypatch):
    import sgdgs.cli as cli_mod
    from sgdgs.errors import InternalInvariantError

    def boom(*a, **k):
        raise InternalInvariantError("synthetic")

    monkeypatch.setattr(cli_mod, "certify_from_charpoly", boom)
    code, _, err = run(capsys, "certify", "--dataset", "example1-poly")
    assert code == 2
    assert "internal invariant" in err
