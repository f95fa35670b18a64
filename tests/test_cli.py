"""Command-line workflows: generate, validate, analyze, verify, replay,
export-dot, and the file round trips."""

import re

import pytest

from o1ppg import srsio
from o1ppg.cli import main
from o1ppg.fixtures import fix_k4
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


@pytest.mark.parametrize("max_n", ["3", "-5"])
def test_generate_below_the_seed_writes_no_member(max_n, tmp_path, capsys):
    # K4, the seed, has four vertices: a smaller bound keeps nothing
    out = tmp_path / "c"
    assert main(["generate", "--max-n", max_n, "--out", str(out)]) == 0
    assert (out / "manifest.tsv").read_text() == \
        "n\tkey\tpolyhedral\tbipartite\tconnectivity\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.tsv"]
    assert "quadrangulations=" not in capsys.readouterr().out


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
    out, err = capsys.readouterr()
    assert out == ""
    summary = re.fullmatch(r"instances=(\d+) results=(\d+) fails=0 "
                           r"runtime=\d+\.\ds peak_rss_mb=(\d+\.\d)\n", err)
    assert summary is not None, err
    assert float(summary[3]) > 0
    text = report.read_text()
    assert f"totals results={summary[2]} fails=0" in text
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
    # the replayed record is the report's record, byte for byte
    reported = [line for line in text.splitlines()
                if line.startswith(f"result instance={inst_key} "
                                   "theorem=T3.4 ")]
    assert out.splitlines() == reported


def test_verify_reports_the_larger_of_own_and_worker_peak_rss(
        corpus_n12_dir, monkeypatch, capsys):
    # with O1PPG_WORKERS above 1 the audit runs in reaped pool workers,
    # whose peak counts under RUSAGE_CHILDREN; the larger figure is printed
    import resource
    from types import SimpleNamespace

    kib = {resource.RUSAGE_SELF: 100 * 1024,
           resource.RUSAGE_CHILDREN: 300 * 1024}
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=kib[who]))
    monkeypatch.setenv("O1PPG_WORKERS", "2")
    rc = main(["verify", "--corpus", str(corpus_n12_dir),
               "--theorems", "DegreeFacts"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.rstrip().endswith("peak_rss_mb=300.0"), err


def test_verify_theorem_subset(corpus_dir, capsys):
    rc = main(["verify", "--corpus", str(corpus_dir),
               "--theorems", "T1.3,L3.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary theorem=T1.3" in out
    assert "summary theorem=T1.6" not in out


def test_verify_theorems_header_in_canonical_order(corpus_dir, tmp_path):
    # the same selection, in any order and with repeats, writes one report
    reports = []
    for selection in ("T3.4,T1.3,T1.3", "T1.3,T3.4"):
        out = tmp_path / "selected.report"
        assert main(["verify", "--corpus", str(corpus_dir), "--report",
                     str(out), "--theorems", selection]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert reports[0].splitlines()[1] == "config theorems=T1.3,T3.4 cut_max=7"


def test_replay_lemma_42_prints_the_report_record(corpus_n12_dir, capsys):
    rc = main(["replay", "--corpus", str(corpus_n12_dir),
               "--instance", "q10-i01", "--theorem", "L4.2"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "result instance=q10-i01 theorem=L4.2 verdict=pass "
        "detail='blockers=62'\n")


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


@pytest.mark.parametrize("witness", ["0-1,bad", "0-1,1-2-3", "0-99", "0-0"])
def test_export_dot_rejects_bad_witness(witness, corpus_n12_dir, tmp_path,
                                        capsys):
    path = next((corpus_n12_dir / "q9").glob("*.srs"))
    out = tmp_path / "g.dot"
    rc = main(["export-dot", "--in", str(path), "--out", str(out),
               "--witness", witness])
    assert rc == 1
    assert not out.exists()
    bad = witness.split(",")[-1]
    assert f"--witness token {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line, bad", [("v ", "v x"), ("edge 0 ", "edge 0 0")])
def test_validate_malformed_line_is_rejected(line, bad, corpus_n12_dir,
                                            tmp_path, capsys):
    text = next((corpus_n12_dir / "q9").glob("*.srs")).read_text()
    good = next(s for s in text.splitlines() if s.startswith(line))
    path = tmp_path / "bad.srs"
    path.write_text(text.replace(good, bad))
    assert main(["validate", "--in", str(path)]) == 2
    assert capsys.readouterr().out == \
        f"reject: MalformedRotation: malformed line {bad!r}\n"


@pytest.mark.parametrize("counts", ["v -1\ne 0", "v 1\ne 4\nrot 0"],
                         ids=["negative", "oversized"])
def test_validate_rejects_counts_the_file_cannot_hold(counts, tmp_path,
                                                      capsys):
    path = tmp_path / "bad.srs"
    path.write_text(f"srs 1\n{counts}\n")
    assert main(["validate", "--in", str(path)]) == 2
    assert capsys.readouterr().out.startswith(
        "reject: MalformedRotation: counts v ")


def test_validate_rejects_a_byte_that_is_not_ascii(tmp_path, capsys):
    path = tmp_path / "bad.srs"
    path.write_bytes(b"srs 1\nv 1\ne 0\nrot 0\xff\n")
    assert main(["validate", "--in", str(path)]) == 2
    assert capsys.readouterr().out == (
        "reject: MalformedRotation: bad.srs: byte 0xff at offset 19 "
        "is not ASCII\n")


@pytest.mark.parametrize("command", ["verify", "generate"])
def test_manifest_byte_that_is_not_ascii_is_an_error(command, tmp_path,
                                                     capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"n\tkey\tpolyhedral\tbipartite\tconnectivity\n"
                         b"9\t\xff\t1\t0\t5\n")
    argv = (["verify", "--corpus", str(tmp_path)] if command == "verify"
            else ["generate", "--max-n", "5", "--out", str(tmp_path)])
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: MalformedManifest: manifest.tsv: byte 0xff at offset 42 "
        "is not ASCII\n")
    # generate refuses the old manifest before it writes anything
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.tsv"]


@pytest.mark.parametrize("command", [["analyze", "--allow-small"],
                                     ["export-dot", "--out", "g.dot"]])
def test_instance_commands_reject_what_fails_validation(command, tmp_path,
                                                        monkeypatch, capsys):
    # K4 on P^2 has representativity 2, so it is no polyhedral
    # quadrangulation: analyze and export-dot reject it as validate does
    monkeypatch.chdir(tmp_path)
    k4 = tmp_path / "k4.srs"
    k4.write_text(srsio.dumps(fix_k4().srs))
    assert main(["validate", "--in", str(k4)]) == 2
    reject = capsys.readouterr().out
    assert reject == "reject: NotPolyhedral: representativity 2 < 3\n"
    assert main([command[0], "--in", str(k4), *command[1:]]) == 2
    assert capsys.readouterr() == (reject, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.srs"]


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "--in", "/nonexistent/x.srs"]) == 1


@pytest.mark.parametrize("row", ["9\tabc\t1", "9\t../../etc\t1\t0\t6"],
                         ids=["short-row", "path-in-key"])
def test_verify_rejects_malformed_manifest_row(row, tmp_path, capsys):
    (tmp_path / "manifest.tsv").write_text(
        "n\tkey\tpolyhedral\tbipartite\tconnectivity\n" + row + "\n")
    assert main(["verify", "--corpus", str(tmp_path)]) == 1
    # refused as a row, before any member file is looked up
    assert capsys.readouterr().err.startswith(
        "error: MalformedManifest: manifest.tsv line 2 is not a member row")


def test_verify_rejects_a_member_whose_order_is_not_its_row_n(
        corpus_n12_dir, tmp_path, capsys):
    # an n = 12 member filed, and listed, as n = 10 is not audited as one
    (tmp_path / "q10").mkdir()
    (tmp_path / "q10" / "i07.srs").write_bytes(
        (corpus_n12_dir / "q12" / "i07.srs").read_bytes())
    (tmp_path / "manifest.tsv").write_text(
        "n\tkey\tpolyhedral\tbipartite\tconnectivity\n"
        "10\ti07\t1\t0\t6\n")
    assert main(["verify", "--corpus", str(tmp_path), "--max-n", "10",
                 "--theorems", "DegreeFacts"]) == 1
    assert capsys.readouterr().err == (
        "error: MalformedManifest: manifest.tsv line 2 has n=10, but "
        "q10/i07.srs has 12 vertices\n")


def test_verify_rejects_a_member_its_row_calls_polyhedral_wrongly(
        corpus_dir, tmp_path, capsys):
    # an n = 10 member of minimum degree 2 listed as polyhedral is not
    # dropped in silence
    rows = [line.split("\t") for line in
            (corpus_dir / "manifest.tsv").read_text().splitlines()[1:]]
    key = next(r[1] for r in rows if r[0] == "10" and r[2] == "0")
    member = (corpus_dir / "q10" / f"{key}.srs").read_bytes()
    assert min(map(len, srsio.loads(member.decode()).rotations)) == 2
    (tmp_path / "q10").mkdir()
    (tmp_path / "q10" / f"{key}.srs").write_bytes(member)
    (tmp_path / "manifest.tsv").write_text(
        "n\tkey\tpolyhedral\tbipartite\tconnectivity\n"
        f"10\t{key}\t1\t0\t6\n")
    assert main(["verify", "--corpus", str(tmp_path),
                 "--theorems", "DegreeFacts"]) == 1
    assert capsys.readouterr().err == (
        f"error: MalformedManifest: manifest.tsv line 2 has polyhedral=1, "
        f"but q10/{key}.srs is not polyhedral\n")
