"""qgen: attention-based quatrain generation with prosody-constrained decoding.

Subpackages/modules:
    numerics    -- tape-based reverse-mode autodiff over numpy, AdaDelta, grad checks
    corpus      -- poem parsing, vocabulary, training sequence construction
    embeddings  -- skip-gram character vector pretraining, copied over the model's embedding
    model       -- bi-GRU encoder, GRU decoder, dual attention, genre indicators
    training    -- teacher-forced training loop, checkpoints
    prosody     -- tone/rhyme dictionaries, tonal templates, compliance checks
    generation  -- constrained beam search
    evaluation  -- keyword-referenced BLEU-1/2
    ablation    -- cumulative ablation table of the modelling techniques, scored by BLEU
    cli         -- command line entry point
"""

__version__ = "0.1.0"
