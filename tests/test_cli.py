"""Command-line workflows: generate, validate, analyze, verify, replay,
export-dot, and the file round trips."""

import pytest

from o1ppg import srsio
from o1ppg.cli import main
from o1ppg.generator import canonical_key, load_corpus_instances


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["generate", "--max-n", "10", "--out", str(out)])
    assert rc == 0
    return out


def test_generate_layout(corpus_dir):
    manifest = (corpus_dir / "manifest.tsv").read_text().splitlines()
    assert manifest[0] == "n\tkey\tpolyhedral\tbipartite\tconnectivity"
    assert (corpus_dir / "q9").is_dir()
    rows = [line.split("\t") for line in manifest[1:]]
    assert sum(1 for r in rows if r[0] == "9") == 268
    poly9 = [r for r in rows if r[0] == "9" and r[2] == "1"]
    assert len(poly9) == 1
    assert (corpus_dir / "q9" / f"{poly9[0][1]}.srs").exists()


def test_generate_deterministic(tmp_path, corpus_dir):
    out2 = tmp_path / "again"
    assert main(["generate", "--max-n", "10", "--out", str(out2)]) == 0
    assert (out2 / "manifest.tsv").read_text() == \
        (corpus_dir / "manifest.tsv").read_text()


def test_validate_accept_reject(corpus_dir, tmp_path, capsys):
    manifest = (corpus_dir / "manifest.tsv").read_text().splitlines()[1:]
    poly9 = next(r.split("\t") for r in manifest
                 if r.split("\t")[0] == "9" and r.split("\t")[2] == "1")
    path = corpus_dir / "q9" / f"{poly9[1]}.srs"
    assert main(["validate", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "accept" in out and "polyhedral=True" in out

    nonpoly = next(r.split("\t") for r in manifest
                   if r.split("\t")[0] == "8")
    path8 = corpus_dir / "q8" / f"{nonpoly[1]}.srs"
    assert main(["validate", "--in", str(path8)]) == 2
    assert main(["validate", "--in", str(path8), "--lenient"]) == 0


def test_validate_round_trip_same_key(corpus_dir, tmp_path):
    instances = load_corpus_instances(corpus_dir)
    inst = instances[0]
    saved = tmp_path / "copy.srs"
    srsio.dump(inst.quad.embedding.srs, saved,
               header=f"o1ppg n={inst.n}")
    back = srsio.load(saved)
    assert canonical_key(back) == canonical_key(inst.quad.embedding)


def test_analyze_lines(corpus_dir, capsys):
    manifest = (corpus_dir / "manifest.tsv").read_text().splitlines()[1:]
    poly10 = next(r.split("\t") for r in manifest
                  if r.split("\t")[0] == "10" and r.split("\t")[2] == "1")
    path = corpus_dir / "q10" / f"{poly10[1]}.srs"
    rc = main(["analyze", "--in", str(path),
               "--checks", "bowtie,barrier4,connectivity,extend3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check=bowtie result=0"
    assert lines[1] == "check=barrier4 result=0"
    assert lines[2] == "check=connectivity result=6"
    assert lines[3].startswith("check=extend3 result=false witness=")


def test_verify_and_replay(corpus_dir, tmp_path, capsys):
    report = tmp_path / "out.report"
    rc = main(["verify", "--corpus", str(corpus_dir),
               "--report", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "totals" in text and "fails=0" in text

    # byte-identical on a second run
    report2 = tmp_path / "out2.report"
    assert main(["verify", "--corpus", str(corpus_dir),
                 "--report", str(report2)]) == 0
    assert report.read_bytes() == report2.read_bytes()

    inst_key = next(line.split()[1].split("=")[1]
                    for line in text.splitlines()
                    if line.startswith("result"))
    capsys.readouterr()
    rc = main(["replay", "--corpus", str(corpus_dir),
               "--instance", inst_key, "--theorem", "T3.4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theorem=T3.4" in out and "verdict=pass" in out


def test_verify_theorem_subset(corpus_dir, capsys):
    rc = main(["verify", "--corpus", str(corpus_dir),
               "--theorems", "T1.3,L3.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary theorem=T1.3" in out
    assert "summary theorem=T1.6" not in out


def test_verify_unknown_theorem(corpus_dir):
    with pytest.raises(SystemExit):
        main(["verify", "--corpus", str(corpus_dir),
              "--theorems", "T9.9"])


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_verify_bad_worker_count(corpus_dir, monkeypatch, value):
    monkeypatch.setenv("O1PPG_WORKERS", value)
    with pytest.raises(SystemExit, match="O1PPG_WORKERS"):
        main(["verify", "--corpus", str(corpus_dir)])


def test_export_dot(corpus_dir, tmp_path, capsys):
    manifest = (corpus_dir / "manifest.tsv").read_text().splitlines()[1:]
    poly9 = next(r.split("\t") for r in manifest
                 if r.split("\t")[0] == "9" and r.split("\t")[2] == "1")
    path = corpus_dir / "q9" / f"{poly9[1]}.srs"
    out = tmp_path / "g.dot"
    rc = main(["export-dot", "--in", str(path), "--out", str(out),
               "--witness", "0-1"])
    assert rc == 0
    dot = out.read_text()
    assert dot.startswith("graph o1ppg {")
    assert "style=dashed" in dot       # diagonals
    assert "color=red" in dot          # highlighted witness


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "--in", "/nonexistent/x.srs"]) == 1
