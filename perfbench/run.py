"""Hot-plug benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {pipeline,taca-lora} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The program is imported from
``src/`` and driven only through ``hotplug.cli.main`` and the public
functions of its modules. A run builds the workload's inputs (set-up), then
times one round of CLI commands, then re-issues its shortest commands, then
checks the outputs independently. ``--seconds`` is the declared length of
what a run measures: the step budgets below size a round to it, and it is
recorded with the result. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where
the metrics are the end-to-end ones of BENCHMARK.json with ``--trace 0`` and
the per-layer ones with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: results are bitwise reproducible at a fixed
# thread count, and one thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import functools
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# -- workload make-up ------------------------------------------------------------
TRAIN_N = 2048           # train split (gen-data --n)
EVAL_N = 1024            # eval split (gen-data --n; the README walkthrough's size)
EVAL_SEED_OFFSET = 100_003  # eval split seed = workload seed + this
OLD_STEPS = 300          # old_encoder.pretrain_steps  (default 400)
NEW_STEPS = 200          # new_encoder.pretrain_steps  (default 600)
TACA_STEPS = 300         # train.steps for the adapter attachment (default 1500)
BATCH = 32               # train.batch_size for pretraining and the adapter (default)
LORA_STEPS = 45          # train.steps for the LoRA attachment
LORA_BATCH = 128         # train.batch_size for the LoRA attachment
LORA_LR = 3e-3           # train.taca_learning_rate for the LoRA attachment
# Set-up is repeated and its median reported where it is short enough.
SETUP_REPEATS = {"pipeline": 7, "taca-lora": 1}
# The shortest commands of set-up and the round are issued again after the
# round, outside run_s and setup_s, and their phase time is the median of all
# issues: on a shared 2-vCPU KVM guest, single timings of a few seconds spread
# by 20-30% from run to run (perfbench/README.md).
REPEATS = {"pretrain_old": 2, "eval_retrieval": 3, "eval_classification": 2}
# Phases whose command keys feed the end-to-end phase metrics.
PHASES = {"pretrain_old": "pretrain_old_s", "pretrain_new": "pretrain_new_s",
          "train_taca": "train_taca_s", "eval_retrieval": "eval_retrieval_s",
          "eval_classification": "eval_classification_s"}


class OpFailed(Exception):
    pass


class Session:
    """Issues CLI commands and checks, and counts what was attempted and
    what failed. Exit 3 from eval-compat is a completed command whose
    verdict (the compatibility ordering did not hold) is recorded."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log
        self.verdicts = []
        self.checks = []

    def command(self, key: str, argv: list, ok=(0,)) -> float:
        from hotplug import cli

        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            code = f"exception\n{traceback.format_exc()}"
        seconds = time.perf_counter() - t0
        self.log.write(f"$ hotplug {' '.join(argv)}\n{out.getvalue()}-> {code}\n")
        if code not in ok:
            self.failed += 1
            raise OpFailed(f"hotplug {argv[0]} ({key}) ended with {code}")
        if argv[0] == "eval-compat":
            self.verdicts.append((key, code))
        return seconds

    def check(self, name: str, fn, *args):
        import checks

        self.attempted += 1
        ok, detail = checks.run_check(fn, *args)
        if not ok:
            self.failed += 1
        self.checks.append({"check": name, "ok": ok, "detail": detail})
        self.log.write(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}\n")


class Workload:
    """Set-up, one round of CLI commands, and the checks, for one seed."""

    def __init__(self, name: str, seed: int, session: Session, work: Path):
        self.name = name
        self.lora = name == "taca-lora"
        self.seed = seed
        self.s = session
        self.setup_dir = work / "setup"
        self.setup_times: dict[str, list] = {}
        self.config_path = self.setup_dir / "config.json"
        self.pretrain_config_path = self.setup_dir / "pretrain.json"

    def config(self, lora: bool) -> dict:
        cfg = {"old_encoder": {"pretrain_steps": OLD_STEPS},
               "new_encoder": {"pretrain_steps": NEW_STEPS},
               "train": {"steps": TACA_STEPS, "batch_size": BATCH, "seed": self.seed}}
        if lora:
            cfg["taca"] = {"variant": "lora"}
            cfg["train"].update(steps=LORA_STEPS, batch_size=LORA_BATCH,
                                taca_learning_rate=LORA_LR)
        return cfg

    @property
    def taca_steps_batch(self):
        return (LORA_STEPS, LORA_BATCH) if self.lora else (TACA_STEPS, BATCH)

    # Commands: {key: argv}, d is where outputs go ---------------------------------
    def gen_data(self, d: Path) -> dict:
        cfg = str(self.pretrain_config_path)
        return {
            "gen_train": ["gen-data", "--out", str(d / "train.tacd"), "--n", str(TRAIN_N),
                          "--seed", str(self.seed), "--config", cfg],
            "gen_eval": ["gen-data", "--out", str(d / "eval.tacd"), "--n", str(EVAL_N),
                         "--seed", str(self.seed + EVAL_SEED_OFFSET), "--config", cfg],
        }

    def pretrain(self, d: Path) -> dict:
        # Pretraining always uses batch 32; only the LoRA attachment runs at 128.
        return {f"pretrain_{role}": ["pretrain", "--role", role, "--data", str(d / "train.tacd"),
                                     "--out", str(d / f"{role}.tack"),
                                     "--config", str(self.pretrain_config_path)]
                for role in ("old", "new")}

    def attach_and_eval(self, d: Path, inputs: Path) -> dict:
        cfg = str(self.config_path)
        commands = {"train_taca": ["train-taca", "--old", str(inputs / "old.tack"),
                                   "--new", str(inputs / "new.tack"),
                                   "--data", str(inputs / "train.tacd"),
                                   "--out", str(d / "taca.tack"), "--log", str(d / "loss.csv"),
                                   "--config", cfg]}
        for task in ("retrieval", "classification"):
            commands[f"eval_{task}"] = [
                "eval-compat", "--old", str(inputs / "old.tack"), "--taca", str(d / "taca.tack"),
                "--new-cold", str(inputs / "new.tack"), "--data", str(inputs / "eval.tacd"),
                "--task", task, "--out", str(d / f"{task}.json"), "--config", cfg]
        return commands

    def _run(self, commands: dict, times: dict, repeats: bool = False):
        for key, argv in commands.items():
            ok = (0, 3) if argv[0] == "eval-compat" else (0,)
            for _ in range(REPEATS.get(key, 1) - 1 if repeats else 1):
                times.setdefault(key, []).append(self.s.command(key, argv, ok))

    # Phases ---------------------------------------------------------------------
    def setup(self):
        """Build the workload's inputs: config files and data splits, and for
        taca-lora the old and new checkpoints its round starts from."""
        d = self.setup_dir
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        self.pretrain_config_path.write_text(json.dumps(self.config(lora=False)))
        self.config_path.write_text(json.dumps(self.config(lora=self.lora)))
        self._run(self.setup_commands(), self.setup_times)

    def setup_commands(self) -> dict:
        commands = self.gen_data(self.setup_dir)
        if self.lora:
            commands |= self.pretrain(self.setup_dir)
        return commands

    def commands(self, d: Path) -> dict:
        if self.lora:
            return self.attach_and_eval(d, self.setup_dir)
        return self.gen_data(d) | self.pretrain(d) | self.attach_and_eval(d, d)

    def round(self, d: Path, times: dict):
        """Every command of the round once, in order: the timed section."""
        self._run(self.commands(d), times)

    def repeat(self, d: Path, times: dict):
        """The commands of set-up and the round named in REPEATS, issued again
        after the round; they rewrite the same outputs byte for byte."""
        commands = self.setup_commands() | self.commands(d)
        self._run({k: v for k, v in commands.items() if k in REPEATS}, times, repeats=True)

    def run_checks(self, d: Path):
        import checks
        from hotplug.config import DEFAULT_CONFIG
        from hotplug.data import load_dataset

        distill_weight = DEFAULT_CONFIG["loss"]["distill_weight"]
        # Data and checkpoints come from set-up in taca-lora, from the round in
        # pipeline; the attachment is always trained in the round. Outputs are
        # read inside the checks, so a missing or malformed one fails its check.
        data = ckpts = self.setup_dir if self.lora else d
        scratch = d / "check"
        scratch.mkdir(exist_ok=True)
        for split, n, seed in (("train", TRAIN_N, self.seed),
                               ("eval", EVAL_N, self.seed + EVAL_SEED_OFFSET)):
            path = data / f"{split}.tacd"
            self.s.check(f"tacd_roundtrip_{split}", lambda: checks.check_tacd_roundtrip(
                path.read_bytes(), n, seed, scratch / f"{split}.tacd"))
            self.s.check(f"captions_{split}", lambda: checks.check_captions(
                *(checks.parse_tacd(path.read_bytes())[k] for k in ("captions", "latents"))))
        self.s.check("loss_log", lambda: checks.check_loss_log(
            checks.read_loss_log(d / "loss.csv"), distill_weight, self.taca_steps_batch[1]))
        self.s.check("backbone", lambda: checks.check_backbone(
            (d / "taca.tack").read_bytes(), (ckpts / "new.tack").read_bytes()))
        self.s.check("gradients", lambda: checks.check_gradients(checks.attachment_gradients(
            ckpts / "old.tack", d / "taca.tack", load_dataset(data / "train.tacd"), self.seed,
            distill_weight)))
        report = functools.cache(lambda: json.loads((d / "retrieval.json").read_text()))
        feats = functools.cache(lambda: checks.retrieval_features(
            ckpts / "old.tack", d / "taca.tack", ckpts / "new.tack",
            load_dataset(data / "eval.tacd")))
        self.s.check("recall", lambda: checks.check_recall(report(), feats()))
        self.s.check("bridge", lambda: checks.check_bridge(report(), feats(), self.seed))
        self.s.check("classification", lambda: checks.check_classification(
            json.loads((d / "classification.json").read_text())))


def artifact_bytes(d: Path) -> int:
    return sum(p.stat().st_size for p in d.iterdir() if p.suffix in (".tacd", ".tack"))


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (not a git checkout)"


def end_to_end(wl: Workload, setup_s: list, times: dict, round_s: float, art: int,
               reports: dict) -> dict:
    med = statistics.median
    phase = {k: med(wl.setup_times.get(k, []) + times.get(k, [])) for k in PHASES}
    taca_steps, taca_batch = wl.taca_steps_batch
    samples = OLD_STEPS * BATCH + NEW_STEPS * BATCH + taca_steps * taca_batch
    train_s = phase["pretrain_old"] + phase["pretrain_new"] + phase["train_taca"]
    values = {name: phase[key] for key, name in PHASES.items()}
    values |= {
        "setup_s": med(setup_s),
        "run_s": round_s,
        "train_samples_per_s": samples / train_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_mb": art / 1e6,
        "hotplug_recall_at_1": reports["retrieval"]["m_old_new"],
    }
    return values


def run(args, spec: dict) -> dict:
    import checks
    import tracer as tracer_mod

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = open(work / "commands.log", "w")
    session = Session(log)
    wl = Workload(args.workload, args.seed, session, work)
    metrics, facts = {}, machine_facts()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS[wl.name]):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        # One untraced round gives the end-to-end times. With --trace 1 a
        # traced round follows, which must write the same outputs; the
        # process figures come from the untraced round, since the tracer's
        # span lists change how the heap grows and shrinks.
        times = {}
        first = work / "round0"
        first.mkdir()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        wl.round(first, times)
        round_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        process = {"process.minor_faults": after.ru_minflt - usage.ru_minflt,
                   "process.sys_ms": 1e3 * (after.ru_stime - usage.ru_stime)}
        art = artifact_bytes(wl.setup_dir) + artifact_bytes(first)
        if args.trace:
            d = work / "round1"
            d.mkdir()
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                t0 = time.perf_counter()
                wl.round(d, {})
                traced_s = time.perf_counter() - t0
            finally:
                tr.uninstall()
            session.check("traced_round_same_outputs", checks.check_same_outputs,
                          checks.digest_dir(first), checks.digest_dir(d))
            shutil.rmtree(d)
        else:
            traced_s = None
            wl.repeat(first, times)
        reports = {t: json.loads((first / f"{t}.json").read_text())
                   for t in ("retrieval", "classification")}
        quality = {t: {k: r[k] for k in ("m_old_old", "m_old_new", "m_new_new")}
                   for t, r in reports.items()}
        t0 = time.perf_counter()
        wl.run_checks(first)
        checks_s = time.perf_counter() - t0

        if args.trace:
            per_layer = tracer_mod.layer_metrics(tr) | process
            per_layer["trace.overhead_pct"] = 100 * (traced_s / round_s - 1)
            with open(WORK / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "count"],
                           "spans": tr.spans}, fh)
            values = per_layer
            wanted = spec["per_layer"]
        else:
            values = end_to_end(wl, setup_s, times, round_s, art, reports)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        summary = {"setup_s": setup_s, "setup_times": wl.setup_times, "round_times": times,
                   "round_s": round_s, "traced_round_s": traced_s,
                   "checks_s": checks_s, "verdicts": session.verdicts, "quality": quality}
    except OpFailed as exc:
        summary = {"error": str(exc)}
    finally:
        log.close()
    correct = session.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": session.attempted, "failed": session.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "summary": summary,
              "checks": session.checks, **result}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for folder in work.iterdir():
        if folder.is_dir():
            shutil.rmtree(folder)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hotplug" / "cli.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from the root of a hotplug source checkout "
              "(src/hotplug and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run(args, spec)
    print(json.dumps({"machine": record["machine"], "summary": record["summary"]}))
    for check in record["checks"]:
        print(f"{'PASS' if check['ok'] else 'FAIL'} {check['check']}: {check['detail']}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
