"""Command line entry point: train / generate / validate / bleu / embed.

Every command writes a run manifest JSON file next to its output so a run can
be reproduced bit-exactly from the recorded flags and seed. Machine-readable
logs are line-JSON; the generated poem itself is plain UTF-8 text.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 validation failed.
A JSON defaults file may be pointed to by the QGEN_CONFIG environment
variable; its keys are the long flag names with dashes as underscores.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from importlib import resources

from . import __version__
from .corpus import (CorpusError, Genre, build_training_sequence, build_vocab,
                     filter_poems, parse_corpus)
from .embeddings import EmbeddingMatrix, init_embedding_matrix, train_skipgram
from .evaluation import bleu
from .generation import (GenerationError, GenRequest, ProsodyRules,
                         beam_search_generate, log_records_to_jsonl)
from .model import ModelConfig, ModelParams
from .prosody import (ProsodyError, compliance_report, load_templates,
                      load_tone_dict, read_lines)
from .training import (CheckpointError, GenreMode, TrainConfig,
                       load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

GENRES = {"5": Genre.FIVE_CHAR, "7": Genre.SEVEN_CHAR}


def _packaged(name):
    return str(resources.files("qgen").joinpath("data", name))


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


def _manifest(args, started, inputs, outputs):
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "manifest") and not callable(v)}
    payload = {"command": args.command, "config": cfg,
               "seeds": {"seed": getattr(args, "seed", None)},
               "inputs": [str(p) for p in inputs if p],
               "outputs": [str(p) for p in outputs if p],
               "build_id": _build_id(),
               "wall_time_s": round(time.monotonic() - started, 3)}
    with open(args.manifest or (args.command + ".manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2)
        f.write("\n")


def _load_rules(args):
    tone_dict = load_tone_dict(args.tone_dict) if args.tone_dict else None
    templates = load_templates(args.templates) if args.templates else []
    return ProsodyRules(tone_dict=tone_dict, templates=templates)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(args):
    started = time.monotonic()
    genre_filter = GENRES.get(args.genre)
    report = parse_corpus(args.corpus, genre_filter=genre_filter)
    if report.rejected:
        print("skipped %d malformed records" % report.rejected, file=sys.stderr)
    vocab = build_vocab(report.poems, min_count=args.min_count)
    poems, removed = filter_poems(report.poems, vocab)
    if removed:
        print("dropped %d all-unknown poems" % removed, file=sys.stderr)
    if not poems:
        raise CorpusError("corpus %s yielded no usable poems" % args.corpus)
    examples = [build_training_sequence(p, vocab, echo=not args.no_echo)
                for p in poems]

    pretrained = None
    if args.pretrained_embeddings:
        emb = EmbeddingMatrix.load_text(args.pretrained_embeddings)
        pretrained = init_embedding_matrix(emb, vocab, args.d, seed=args.seed)
    mcfg = ModelConfig(vocab_size=len(vocab), d=args.d, H=args.H,
                       H_dec=args.H_dec,
                       use_input_attention=not args.no_input_attention,
                       seed=args.seed)
    mparams = ModelParams.initialize(mcfg, pretrained_embedding=pretrained)
    tcfg = TrainConfig(epochs=args.epochs, minibatch=args.minibatch,
                       seed=args.seed, genre_mode=GenreMode(args.genre))
    opt_state, _, step = train(
        examples, mparams, tcfg,
        stop_below_loss=args.stop_below_loss,
        log_fn=lambda r: print(r.to_json(), flush=True))
    save_checkpoint(args.out, mparams, opt_state, vocab, step, args.seed)
    _manifest(args, started, [args.corpus, args.pretrained_embeddings], [args.out])
    return EXIT_OK


def cmd_generate(args):
    started = time.monotonic()
    mparams, _, vocab, _, _ = load_checkpoint(args.checkpoint)
    rules = _load_rules(args)
    req = GenRequest(keywords=args.keywords, genre=GENRES[args.genre],
                     beam_width=args.beam, tone=not args.no_tone,
                     rhyme=not args.no_rhyme, seed=args.seed,
                     sep_keywords=args.sep_keywords)
    poem, records = beam_search_generate(req, mparams, vocab, rules)
    for line in poem.lines:
        print(line)
    if rules.tone_dict is not None and rules.templates:
        rep = compliance_report(poem.lines, rules.tone_dict, rules.templates)
        print(json.dumps(rep.to_dict(), ensure_ascii=False))
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(log_records_to_jsonl(records) + "\n")
    _manifest(args, started, [args.checkpoint, args.tone_dict, args.templates],
              [args.log])
    return EXIT_OK


def _read_poem_lines(path):
    raw = [l.strip() for l in read_lines(path) if l.strip() and not l.startswith("#")]
    if len(raw) == 1 and "|" in raw[0]:
        return [seg.strip() for seg in raw[0].split("|")]
    return raw


def cmd_validate(args):
    started = time.monotonic()
    lines = _read_poem_lines(args.poem)
    tone_dict = load_tone_dict(args.tone_dict)
    templates = load_templates(args.templates)
    rep = compliance_report(lines, tone_dict, templates,
                            include_line1=args.check_line1)
    print(json.dumps(rep.to_dict(), ensure_ascii=False))
    _manifest(args, started, [args.poem, args.tone_dict, args.templates], [])
    return EXIT_OK if rep.compliant else EXIT_INVALID


def _read_char_seqs(path):
    """One character sequence per non-comment line; | and spaces are ignored."""
    seqs = []
    for line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        seqs.append([c for c in line if c != "|" and not c.isspace()])
    return seqs


def cmd_bleu(args):
    started = time.monotonic()
    hyps = _read_char_seqs(args.hyp)
    refs = _read_char_seqs(args.refs)
    if len(hyps) != 1:
        raise ValueError("hypothesis file must hold exactly one sequence, got %d"
                         % len(hyps))
    if not refs:
        raise ValueError("reference file %s is empty" % args.refs)
    rep = bleu(hyps[0], refs)
    print(json.dumps(rep.to_dict(), ensure_ascii=False))
    _manifest(args, started, [args.hyp, args.refs], [])
    return EXIT_OK


def cmd_embed(args):
    started = time.monotonic()
    report = parse_corpus(args.corpus)
    if not report.poems:
        raise CorpusError("corpus %s yielded no poems" % args.corpus)
    stream = [c for p in report.poems for c in p.chars()]
    emb = train_skipgram(stream, window=args.window, d=args.d,
                         negatives=args.negatives, epochs=args.epochs,
                         seed=args.seed)
    emb.save_text(args.out)
    print(json.dumps({"chars": len(emb.chars), "d": emb.d, "out": args.out},
                     ensure_ascii=False))
    _manifest(args, started, [args.corpus], [args.out])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--minibatch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--H", type=int, default=128)
    p.add_argument("--H-dec", dest="H_dec", type=int, default=256)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--no-echo", action="store_true",
                   help="drop the line-1 reconstruction target")
    p.add_argument("--no-input-attention", action="store_true")
    p.add_argument("--pretrained-embeddings", default=None)
    p.add_argument("--stop-below-loss", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate one quatrain from keywords")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--genre", choices=("5", "7"), required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-tone", action="store_true")
    p.add_argument("--no-rhyme", action="store_true")
    p.add_argument("--sep-keywords", action="store_true",
                   help="insert a separator between whitespace-split keywords")
    p.add_argument("--tone-dict", default=_packaged("tone_dict.tsv"))
    p.add_argument("--templates", default=_packaged("templates.txt"))
    p.add_argument("--log", default=None, help="beam search log (line JSON)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check a poem against the regulations")
    p.add_argument("--poem", required=True,
                   help="poem file: 4 lines, or one |-separated record")
    p.add_argument("--tone-dict", default=_packaged("tone_dict.tsv"))
    p.add_argument("--templates", default=_packaged("templates.txt"))
    p.add_argument("--check-line1", action="store_true",
                   help="also report whether line 1 rhymes")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bleu", help="score one hypothesis against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("embed", help="pretrain character vectors (skip-gram)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default="embeddings.txt")
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_embed)
    return ap, sub


def _apply_env_config(ap, sub):
    path = os.environ.get("QGEN_CONFIG")
    if not path:
        return
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("QGEN_CONFIG %s must hold a JSON object" % path)
    for parser in [ap] + list(sub.choices.values()):
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
    if action.type is None and not isinstance(value, str):
        raise ValueError("%s must be a string, got %s" % (action.dest, json.dumps(value)))
    try:
        value = action.type(str(value)) if action.type else value
    except (TypeError, ValueError) as e:
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
    try:
        return args.func(args)
    except (CorpusError, ProsodyError, CheckpointError, GenerationError,
            ValueError, FloatingPointError, OSError) as e:
        print("qgen: %s" % e, file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
