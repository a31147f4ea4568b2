"""Timing spans around qgen's public functions, installed from outside.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and request id. `encode`, `decode_step`
and other functions that a module imports by name are patched at every
qgen module that holds them. Spans are kept in memory; `write` saves them
when the run ends. A target that no longer exists (renamed or removed by a
refactor) is listed as absent and its metrics read 0.
"""

import importlib
import time

MODULES = ("corpus", "prosody", "model", "numerics", "training", "generation",
           "evaluation", "embeddings")

SETUP = "setup"

# (module, attribute path) of every wrapped function. Set-up targets are
# reported per set-up, the others per request.
SETUP_TARGETS = (
    ("corpus", "parse_corpus"), ("corpus", "build_vocab"),
    ("corpus", "filter_poems"), ("corpus", "build_training_sequence"),
    ("prosody", "load_tone_dict"), ("prosody", "load_templates"),
    ("model", "ModelParams.initialize"),
    ("training", "load_checkpoint"),
)
REQUEST_TARGETS = (
    ("numerics", "backward"), ("numerics", "adadelta_step"),
    ("numerics", "gru_cell"), ("numerics", "additive_attention"),
    ("model", "encode"), ("model", "decode_step"),
    ("training", "train_epoch"), ("training", "batch_loss"),
    ("generation", "beam_search_generate"), ("generation", "constraint_mask"),
    ("prosody", "validate_structure"), ("prosody", "compliance_report"),
    ("evaluation", "evaluate_keywords"), ("evaluation", "bleu"),
    ("evaluation", "ReferenceIndex.references"),
    ("embeddings", "train_skipgram"), ("embeddings", "pair_loss_grads"),
)
# Leaves reported on their own: their time counts in no `<module>.self_s`.
APART = ("generation.constraint_mask", "embeddings.pair_loss_grads")


def span_name(module, path):
    """`model.ModelParams.initialize` -> `model.initialize`."""
    return "%s.%s" % (module, path.rsplit(".", 1)[-1])


class Tracer:
    """Collects spans while installed; `request` tags the spans that follow."""

    def __init__(self):
        self.spans = []         # (name, start, end, parent index or -1, request)
        self.request = SETUP
        self.absent = []
        self.mask_survival = []
        self.relaxations = 0
        self._stack = []
        self._patches = []      # (owner, attribute, original, wrapper)
        self._plan()

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_mask(self, result):
        """constraint_mask returns (masked distribution, relaxations)."""
        if self.request == SETUP:
            return
        try:
            masked, relax = result
            survival = float((masked > 0).mean())
        except (TypeError, ValueError, AttributeError):
            return      # a changed return shape leaves the counters at 0
        self.mask_survival.append(survival)
        self.relaxations += len(relax)

    def _plan(self):
        """Find every target and build its wrapper; targets not found are absent."""
        mods = [importlib.import_module("qgen." + m) for m in MODULES]
        for module, path in SETUP_TARGETS + REQUEST_TARGETS:
            name = span_name(module, path)
            *owner_path, attr = path.split(".")
            owner = mods[MODULES.index(module)]
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
            elif isinstance(raw, classmethod):
                self._patches.append(
                    (owner, attr, raw, classmethod(self._wrap(name, raw.__func__))))
            else:
                hook = self._on_mask if name == "generation.constraint_mask" else None
                wrapped = self._wrap(name, raw, hook)
                # the defining module, and every qgen module that imported it by name
                holders = [(mod, key) for mod in mods
                           for key, val in vars(mod).items() if val is raw]
                if owner not in mods:
                    holders.append((owner, attr))
                self._patches += [(o, a, raw, wrapped) for o, a in holders]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, req in self.spans:
                f.write("%s\t%.9f\t%.9f\t%d\t%s\n" % (name, start, end, parent, req))


def _inside(spans, parent, match):
    """Whether span `parent` or one of its ancestors has a name that matches."""
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, requests):
    """Per-layer metrics from the spans of one set-up and `requests` requests.

    Request metrics are per request. A layer is a module, and
    `<module>.self_s` sums, over every span of that module, its time minus
    the time of the spans nested directly in it. The spans in APART count in
    no layer's self time: `generation.self_s` excludes `constraint_mask` and
    `embeddings.self_s` excludes `pair_loss_grads`, which are reported on
    their own. So the self times and the APART spans add up to the time of
    the top-level spans.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, incl, setup_s = {}, {}, {}
    self_s = dict.fromkeys(MODULES, 0.0)
    decode_in_beam = 0
    for i, (name, start, end, parent, req) in enumerate(spans):
        dur = end - start
        if req == SETUP:
            setup_s[name] = setup_s.get(name, 0.0) + dur
            continue
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        if name not in APART:
            self_s[name.split(".", 1)[0]] += dur - child[i]
        if name == "model.decode_step":
            decode_in_beam += _inside(spans, parent,
                                      lambda n: n == "generation.beam_search_generate")

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    corpus_setup = sum(setup_s.get(span_name(mod, path), 0.0)
                       for mod, path in SETUP_TARGETS if mod == "corpus")
    put("corpus.setup_s", corpus_setup, "s")
    put("prosody.load_s", setup_s.get("prosody.load_tone_dict", 0.0)
        + setup_s.get("prosody.load_templates", 0.0), "s")
    put("model.initialize.s", setup_s.get("model.initialize", 0.0), "s")
    put("training.load_checkpoint.s", setup_s.get("training.load_checkpoint", 0.0), "s")
    n = max(requests, 1)
    for module, path in REQUEST_TARGETS:
        name = span_name(module, path)
        put(name + ".calls", calls.get(name, 0) / n, "calls/req")
        put(name + ".s", incl.get(name, 0.0) / n, "s/req")
    for module in MODULES:
        put(module + ".self_s", self_s[module] / n, "s/req")
    poems = calls.get("generation.beam_search_generate", 0)
    put("generation.decode_calls_per_poem", decode_in_beam / poems if poems else 0, "calls/poem")
    survival = tracer.mask_survival
    put("generation.mask_survival", sum(survival) / len(survival) if survival else 0, "ratio")
    put("generation.relaxations", tracer.relaxations / poems if poems else 0, "1/poem")
    put("embeddings.pairs", calls.get("embeddings.pair_loss_grads", 0) / n, "pairs/req")
    return m


def top_level_seconds(tracer):
    """Total time of the request spans that have no parent span."""
    return sum(end - start for _, start, end, parent, req in tracer.spans
               if parent < 0 and req != SETUP)
