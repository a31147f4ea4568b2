"""Self-test of the benchmark at toy size; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, in both modes; that corrupted outputs (a poem with a broken tone
slot, a non-finite or rising loss, non-finite vectors, a keyword without
references) are counted as failures; that a wrap target missing from qgen is
reported absent instead of failing; that the layers' self times add up to
the time of the top-level spans; and that run.py exits non-zero without
printing a result when the qgen sources are not there.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, run.SRC)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qgen import generation, prosody  # noqa: E402

SEED = 3


def run_cli(args, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def check_metric_names(bench):
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in inputs.WORKLOADS:
        for trace in (0, 1):
            proc = run_cli(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected[trace], (name, trace, set(got) ^ set(expected[trace]))
            for k, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), k
        print("ok  %-8s emits every end-to-end and per-layer metric with its unit" % name)


def break_tone(lines, tone_dict, templates):
    """The poem with one character swapped for one of the opposite tone, such
    that the compliance report finds a tone violation."""
    first = {}
    for char, tone in tone_dict.tones.items():
        first.setdefault(tone, char)
    flip = {prosody.Tone.PING: first[prosody.Tone.ZE], prosody.Tone.ZE: first[prosody.Tone.PING]}
    for li, line in enumerate(lines):
        for pi, char in enumerate(line):
            tone = tone_dict.tone(char)
            if tone not in flip:
                continue
            cand = list(lines)
            cand[li] = line[:pi] + flip[tone] + line[pi + 1:]
            if prosody.compliance_report(cand, tone_dict, templates).tone_violations:
                return cand
    raise AssertionError("no single swap breaks a tone slot of %r" % (lines,))


def check_corrupted_poems_fail():
    original = generation.beam_search_generate
    tone_dict = prosody.load_tone_dict(os.path.join(run.DATA_DIR, "tone_dict.tsv"))
    templates = prosody.load_templates(os.path.join(run.DATA_DIR, "templates.txt"))

    def corrupting(*args, **kwargs):
        poem, records = original(*args, **kwargs)
        poem.lines = break_tone(poem.lines, tone_dict, templates)
        return poem, records

    generation.beam_search_generate = corrupting
    try:
        result = run.run_workload("generate", SEED, 0.3, 0, inputs.TINY)
    finally:
        generation.beam_search_generate = original
    assert result["attempted"] > 0 and result["failed"] == result["attempted"], result
    assert not result["correct"]
    print("ok  a poem with a broken tone slot counts as a failure (%d/%d)"
          % (result["failed"], result["attempted"]))


def check_output_checks():
    assert workloads.check_loss(2.0, 3.0)
    assert not workloads.check_loss(float("nan"), 3.0)
    assert not workloads.check_loss(3.5, 3.0)
    assert not workloads.check_bleu({"keyword": "x", "bleu": None})
    assert not workloads.check_bleu({"keyword": "x", "bleu": float("inf")})
    import numpy as np
    assert not workloads.check_vectors(np.array([[0.0, float("nan")]]))
    assert not workloads.check_poem(["春眠不觉晓"] * 3, None, [])
    print("ok  non-finite or rising loss, missing references, NaN vectors and "
          "malformed poems fail their checks")


def check_absent_target():
    saved = tracing.REQUEST_TARGETS
    tracing.REQUEST_TARGETS = saved + (("generation", "beam_search_batched"),)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, requests=0)
    finally:
        tracing.REQUEST_TARGETS = saved
    assert tracer.absent == ["generation.beam_search_batched"], tracer.absent
    assert metrics["generation.beam_search_batched.calls"]["value"] == 0
    assert generation.beam_search_generate.__name__ == "beam_search_generate"
    print("ok  a missing wrap target is reported absent, and uninstall restores qgen")


def check_self_times_add_up():
    for name in inputs.WORKLOADS:
        wl, _, _ = run.set_up(workloads.WORKLOAD_CLASSES[name],
                              inputs.make_inputs(name, SEED, inputs.TINY, run.DATA_DIR),
                              inputs.TINY, workloads.OP_ERRORS)
        tracer = tracing.Tracer()
        tracer.request = "0"
        tracer.install()
        try:
            wl.request()
        finally:
            tracer.uninstall()
            wl.close()
        m = tracing.layer_metrics(tracer, requests=1)
        parts = (sum(m[mod + ".self_s"]["value"] for mod in tracing.MODULES)
                 + sum(m[span + ".s"]["value"] for span in tracing.APART))
        total = tracing.top_level_seconds(tracer)
        assert math.isclose(parts, total, rel_tol=1e-9), (name, parts, total)
    print("ok  the layers' self times and the spans reported apart add up to the "
          "top-level span time")


def check_exits_without_sources():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for f in os.listdir(run.HERE):
            if f.endswith(".py"):
                shutil.copy(os.path.join(run.HERE, f), os.path.join(bare, "perfbench"))
        proc = run_cli(["--workload", "train", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  exits %d with no result when the qgen sources are missing" % proc.returncode)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_output_checks()
    check_absent_target()
    check_self_times_add_up()
    check_exits_without_sources()
    check_corrupted_poems_fail()
    check_metric_names(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
