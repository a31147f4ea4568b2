"""Command line entry point: train / generate / validate / bleu / embed.

Every command writes a run manifest JSON file next to its output so a run can
be reproduced bit-exactly from the recorded flags and seed. Machine-readable
logs are line-JSON, each line written by `_emit` from one report's fields; the
generated poem itself is plain UTF-8 text.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 validation failed.
A JSON defaults file may be pointed to by the QGEN_CONFIG environment
variable; its keys are the long flag names with dashes as underscores, and
any other key is a usage error.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass
from importlib import resources

import numpy as np

from . import __version__
from .corpus import (CorpusError, Genre, build_training_sequence, build_vocab,
                     content_lines, filter_poems, parse_corpus, read_lines)
from .embeddings import EmbeddingMatrix, train_skipgram
from .evaluation import bleu
from .generation import GenerationError, GenRequest, ProsodyRules, beam_search_generate
from .model import ModelConfig, ModelParams
from .prosody import (ProsodyError, compliance_report, load_templates,
                      load_tone_dict, templates_for)
from .training import (CheckpointError, GenreMode, TrainConfig,
                       load_checkpoint, save_checkpoint, train, training_bytes)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

GENRES = {"5": Genre.FIVE_CHAR, "7": Genre.SEVEN_CHAR}


def _packaged(name):                # a Traversable: read_lines reads it also from a zip
    return resources.files("qgen") / "data" / name


def _build_id():
    """Best-effort build identifier: git describe, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "qgen-" + __version__


def _manifest_path(args):
    return args.manifest or (args.command + ".manifest.json")


def _manifest(args, started):
    """Write the run manifest; `args.inputs`/`args.outputs` name the path flags."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "manifest", "inputs", "outputs")}
    payload = {"command": args.command, "config": cfg,
               "seeds": {"seed": getattr(args, "seed", None)},
               "inputs": [str(getattr(args, k)) for k in args.inputs if getattr(args, k)],
               "outputs": [str(getattr(args, k)) for k in args.outputs if getattr(args, k)],
               "build_id": _build_id(),
               # what a timing or a last-bit difference depends on
               "environment": {"numpy": np.__version__,
                               "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
                               or os.environ.get("OMP_NUM_THREADS") or "unset",
                               "cpu_count": os.cpu_count(),
                               "usable_cpus": len(os.sched_getaffinity(0))
                               if hasattr(os, "sched_getaffinity") else None},
               "wall_time_s": round(time.monotonic() - started, 3)}
    with open(_manifest_path(args), "w", encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2, default=str)  # str: a packaged path
        f.write("\n")


def _emit(record, file=None):
    """Write one record as a flushed JSON line: a dataclass by its fields, in order."""
    print(json.dumps(asdict(record) if is_dataclass(record) else record, ensure_ascii=False,
                     default=_rounded_list), file=file, flush=True)


def _rounded_list(obj):
    """An array to 6 decimals, rounded in float64: a rounded float32 widens to more decimals."""
    if isinstance(obj, np.ndarray):
        return np.round(obj.astype(np.float64), 6).tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _check_writable(args):
    """Fail now, with open()'s own error, if the manifest or an output the
    command declares could not be written once it has run; an empty file this
    creates is removed again, and an existing one keeps its bytes."""
    for path in filter(None, [_manifest_path(args), *(getattr(args, k) for k in args.outputs)]):
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


# cgroup v2's memory limit file, then v1's; only the first that exists is read
MEMORY_LIMIT_FILES = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _read_memory_max():
    """The text of the first of MEMORY_LIMIT_FILES that exists, which this only reads."""
    path = next(filter(os.path.exists, MEMORY_LIMIT_FILES), MEMORY_LIMIT_FILES[0])
    with open(path, encoding="ascii") as f:
        return f.read()


def _physical_memory():
    """The memory available to this process in bytes: the smaller of the
    machine's physical memory and the cgroup's limit, or None where neither
    tells. A limit of `max`, or one that is missing or unreadable, is none."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        have = None
    try:
        limit = int(_read_memory_max())
    except (OSError, ValueError):
        return have
    return limit if have is None else min(have, limit)


def _load_rules(args):
    tone_dict = load_tone_dict(args.tone_dict) if args.tone_dict else None
    templates = load_templates(args.templates) if args.templates else []
    return ProsodyRules(tone_dict=tone_dict, templates=templates)


def _parse_corpus(path, genre_filter=None):
    """parse_corpus, telling stderr how many malformed records it skipped and why the first."""
    report = parse_corpus(path, genre_filter=genre_filter)
    if report.rejected:
        print("skipped %d malformed records (first: %s)" % (report.rejected, report.reasons[0]),
              file=sys.stderr)
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(args):
    report = _parse_corpus(args.corpus, genre_filter=GENRES.get(args.genre))
    vocab = build_vocab(report.poems, min_count=args.min_count)
    poems, removed = filter_poems(report.poems, vocab)
    if removed:
        print("dropped %d all-unknown poems" % removed, file=sys.stderr)
    if not poems:
        raise CorpusError("corpus %s yielded no usable poems" % args.corpus)
    examples = [build_training_sequence(p, vocab, echo=not args.no_echo)
                for p in poems]

    mcfg = ModelConfig(vocab_size=len(vocab), d=args.d, H=args.H,
                       H_dec=args.H_dec,
                       use_input_attention=not args.no_input_attention,
                       seed=args.seed)
    need, have = training_bytes(mcfg), _physical_memory()
    if have is not None and need > have:
        raise MemoryError("training this model needs %d bytes for its parameters, and the "
                          "memory available to this process is %d bytes" % (need, have))
    mparams = ModelParams.initialize(mcfg)
    if args.pretrained_embeddings:
        emb = EmbeddingMatrix.load_text(args.pretrained_embeddings)
        emb.copy_into(mparams.tensors["emb"], vocab)
    tcfg = TrainConfig(epochs=args.epochs, minibatch=args.minibatch,
                       seed=args.seed, genre_mode=GenreMode(args.genre))
    _, _, step = train(examples, mparams, tcfg, stop_below_loss=args.stop_below_loss,
                       log_fn=_emit)
    save_checkpoint(args.out, mparams, None, vocab, step, args.seed)
    return EXIT_OK


def cmd_generate(args):
    mparams, _, vocab, _, _ = load_checkpoint(args.checkpoint)
    rules = _load_rules(args)
    req = GenRequest(keywords=args.keywords, genre=GENRES[args.genre],
                     beam_width=args.beam, tone=not args.no_tone,
                     rhyme=not args.no_rhyme, seed=args.seed,
                     sep_keywords=args.sep_keywords)
    poem, records = beam_search_generate(req, mparams, vocab, rules)
    if args.log:                        # before the poem: no poem unless the log was written
        with open(args.log, "w", encoding="utf-8") as log:
            for rec in records:
                _emit(rec, file=log)
    for line in poem.lines:
        print(line)
    if rules.tone_dict is not None and templates_for(rules.templates, req.genre):
        _emit(compliance_report(poem.lines, rules.tone_dict, rules.templates))
    return EXIT_OK


def _read_poem_lines(path):
    raw = [line.strip() for _, line in content_lines(path, ValueError)]
    if len(raw) == 1 and "|" in raw[0]:
        return [seg.strip() for seg in raw[0].split("|")]
    return raw


def cmd_validate(args):
    lines = _read_poem_lines(args.poem)
    tone_dict = load_tone_dict(args.tone_dict)
    templates = load_templates(args.templates)
    rep = compliance_report(lines, tone_dict, templates,
                            include_line1=args.check_line1)
    _emit(rep)
    return EXIT_OK if rep.compliant else EXIT_INVALID


def _read_char_seqs(path):
    """One character sequence per non-comment line; | and spaces are ignored."""
    return [[c for c in line if c != "|" and not c.isspace()]
            for _, line in content_lines(path, ValueError)]


def cmd_bleu(args):
    hyps = _read_char_seqs(args.hyp)
    refs = _read_char_seqs(args.refs)
    if len(hyps) != 1:
        raise ValueError("hypothesis file must hold exactly one sequence, got %d"
                         % len(hyps))
    if not refs:
        raise ValueError("reference file %s is empty" % args.refs)
    _emit(bleu(hyps[0], refs))
    return EXIT_OK


def cmd_embed(args):
    report = _parse_corpus(args.corpus)
    if not report.poems:
        raise CorpusError("corpus %s yielded no poems" % args.corpus)
    stream = [c for p in report.poems for c in p.chars()]
    emb = train_skipgram(stream, window=args.window, d=args.d,
                         negatives=args.negatives, epochs=args.epochs,
                         seed=args.seed)
    emb.save_text(args.out)
    w, n = args.window, len(stream)     # n >= w + 1, or training raised
    _emit({"chars": len(emb.chars), "d": emb.d, "out": args.out,
           "pairs": args.epochs * (2 * w * n - w * (w + 1))})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, need):
    """An argparse type: `convert(text)`, a usage error unless it is `need`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %s" % (need, text))
        return value
    parse.__name__ = convert.__name__           # argparse says "invalid int value: 'x'"
    return parse


POSITIVE = _checked(int, lambda n: n >= 1, ">= 1")
NON_NEGATIVE = _checked(int, lambda n: n >= 0, ">= 0")
FINITE = _checked(float, math.isfinite, "finite")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qgen",
        description="Attention-based classical Chinese quatrain generator.")
    ap.add_argument("--manifest", default=None,
                    help="run manifest path (default <command>.manifest.json)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--genre", choices=("5", "7", "hybrid"), default="hybrid")
    p.add_argument("--epochs", type=POSITIVE, default=50)
    p.add_argument("--minibatch", type=POSITIVE, default=8)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--d", type=POSITIVE, default=128)
    p.add_argument("--H", type=POSITIVE, default=128)
    p.add_argument("--H-dec", dest="H_dec", type=POSITIVE, default=256)
    p.add_argument("--min-count", type=POSITIVE, default=1)
    p.add_argument("--no-echo", action="store_true",
                   help="drop the line-1 reconstruction target")
    p.add_argument("--no-input-attention", action="store_true")
    p.add_argument("--pretrained-embeddings", default=None)
    p.add_argument("--stop-below-loss", type=FINITE, default=None)
    p.set_defaults(func=cmd_train, inputs=("corpus", "pretrained_embeddings"),
                   outputs=("out",))

    p = sub.add_parser("generate", help="generate one quatrain from keywords")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--keywords", required=True, type=_checked(str, str.strip, "non-blank"))
    p.add_argument("--genre", choices=("5", "7"), required=True)
    p.add_argument("--beam", type=POSITIVE, default=5)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--no-tone", action="store_true")
    p.add_argument("--no-rhyme", action="store_true")
    p.add_argument("--sep-keywords", action="store_true",
                   help="insert a separator between whitespace-split keywords")
    p.add_argument("--tone-dict", default=_packaged("tone_dict.tsv"))
    p.add_argument("--templates", default=_packaged("templates.txt"))
    p.add_argument("--log", default=None, help="beam search log (line JSON)")
    p.set_defaults(func=cmd_generate, inputs=("checkpoint", "tone_dict", "templates"),
                   outputs=("log",))

    p = sub.add_parser("validate", help="check a poem against the regulations")
    p.add_argument("--poem", required=True,
                   help="poem file: 4 lines, or one |-separated record")
    p.add_argument("--tone-dict", default=_packaged("tone_dict.tsv"))
    p.add_argument("--templates", default=_packaged("templates.txt"))
    p.add_argument("--check-line1", action="store_true",
                   help="also report whether line 1 rhymes")
    p.set_defaults(func=cmd_validate, inputs=("poem", "tone_dict", "templates"), outputs=())

    p = sub.add_parser("bleu", help="score one hypothesis against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.set_defaults(func=cmd_bleu, inputs=("hyp", "refs"), outputs=())

    p = sub.add_parser("embed", help="pretrain character vectors (skip-gram)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default="embeddings.txt")
    p.add_argument("--d", type=_checked(int, lambda n: n >= 2, ">= 2"), default=128)
    p.add_argument("--window", type=POSITIVE, default=5)
    p.add_argument("--negatives", type=POSITIVE, default=5)
    p.add_argument("--epochs", type=POSITIVE, default=1)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.set_defaults(func=cmd_embed, inputs=("corpus",), outputs=("out",))
    return ap, sub


def _apply_env_config(ap, sub):
    path = os.environ.get("QGEN_CONFIG")
    if not path:
        return
    cfg = json.loads("\n".join(read_lines(path, ValueError)))
    if not isinstance(cfg, dict):
        raise ValueError("QGEN_CONFIG %s must hold a JSON object" % path)
    parsers = [ap] + list(sub.choices.values())
    declared = {a.dest for parser in parsers for a in parser._actions}
    for key in cfg:
        if key not in declared:                 # a misspelled key would set nothing
            raise ValueError("unknown key %s" % (key if key.isprintable() else json.dumps(key)))
    for parser in parsers:
        parser.set_defaults(**{a.dest: _config_value(a, cfg[a.dest])
                               for a in parser._actions if a.dest in cfg})


def _config_value(action, value):
    """Check one QGEN_CONFIG value as argparse checks the flag's own value.

    argparse converts string defaults only, so a JSON number, list or null
    would otherwise reach the command unchecked.
    """
    if action.nargs == 0:                       # store_true
        if not isinstance(value, bool):
            raise ValueError("%s must be true or false, got %s"
                             % (action.dest, json.dumps(value)))
        return value
    if value is None and action.default is None:
        return None
    if not isinstance(value, str) and (action.type is None or action.type.__name__ == "str"):
        raise ValueError("%s must be a string, got %s" % (action.dest, json.dumps(value)))
    try:
        value = action.type(str(value)) if action.type else value
    except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
        raise ValueError("%s: %s" % (action.dest, e)) from e
    if action.choices is not None and value not in action.choices:
        raise ValueError("%s must be one of %s, got %s"
                         % (action.dest, ", ".join(action.choices), json.dumps(value)))
    return value


def main(argv=None):
    ap, sub = build_parser()
    try:
        _apply_env_config(ap, sub)
    except (OSError, ValueError, RecursionError) as e:
        print("qgen: bad QGEN_CONFIG: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    started = time.monotonic()
    try:
        _check_writable(args)           # so no output precedes a failure to write one
        code = args.func(args)
        _manifest(args, started)        # only a command that returned has a manifest
        return code
    except (CorpusError, ProsodyError, CheckpointError, GenerationError,
            ValueError, FloatingPointError, OSError) as e:
        print("qgen: %s" % e, file=sys.stderr)
    except MemoryError as e:
        print("qgen: out of memory: %s" % e, file=sys.stderr)
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
