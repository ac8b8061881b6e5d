"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths they check: the WER oracle
enumerates raw edit sequences, and the gradient checker perturbs tensors one
element at a time.
"""

import numpy as np


def exhaustive_wer(ref, hyp):
    """Best (errors, insertions, deletions) over every edit sequence.

    Branch-and-bound on the error count alone; equal-error branches are kept
    so the insertion/deletion tie preference is decided by full enumeration.
    """
    best = [None]
    lr, lh = len(ref), len(hyp)

    def walk(i, j, errors, ins, dele):
        bound = errors + abs((lr - i) - (lh - j))
        if best[0] is not None and bound > best[0][0]:
            return
        if i == lr and j == lh:
            cand = (errors, ins, dele)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i < lr and j < lh:
            walk(i + 1, j + 1, errors + (ref[i] != hyp[j]), ins, dele)
        if i < lr:
            walk(i + 1, j, errors + 1, ins, dele + 1)
        if j < lh:
            walk(i, j + 1, errors + 1, ins + 1, dele)

    walk(0, 0, 0, 0, 0)
    return best[0]


def gradients_match(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    gap = np.abs(analytic - numeric)
    scale = np.abs(analytic) + np.abs(numeric)
    return np.all(gap <= abs_tol + rel * scale)


def finite_difference_check(params, loss_fn, grads, h=1e-5, rel=1e-4):
    """Central differences over every element of every tensor; returns the
    worst offending tensor name or None."""
    for name, tensor in params.tensors.items():
        numeric = np.zeros_like(tensor)
        flat = tensor.ravel()
        num_flat = numeric.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            num_flat[idx] = (up - down) / (2.0 * h)
        if not gradients_match(grads[name], numeric, rel=rel):
            return name
    return None


# Per-utterance reference for the array path in ``kbrerank.evaluation``: one
# n-best list at a time, components summed in a fixed order, every decoding
# re-aligned against the reference, and the weight grid swept recursively.

SUM_ORDER = ("ngram", "lstm", "reranker")


def reference_combine(comps, names, weights):
    """First-pass score plus each weighted component of ``names``, added in
    ``SUM_ORDER``."""
    total = np.array(comps["first_pass"], dtype=float)
    for name in SUM_ORDER:
        if name in names:
            total += weights.get(name, 0.0) * np.array(comps[name], dtype=float)
    return total


def reference_counts(ref, hyp):
    errors, insertions, deletions = exhaustive_wer(ref, hyp)
    return errors - insertions - deletions, deletions, insertions


def reference_decode(dataset, comps_per_utt, names, weights):
    """[(chosen index, (S, D, I))] per utterance, and the corpus WER."""
    picks = []
    errors = words = 0
    for nbest, comps in zip(dataset, comps_per_utt):
        chosen = int(np.argmax(reference_combine(comps, names, weights)))
        counts = reference_counts(nbest.reference.tokens, nbest.hypotheses[chosen][0].tokens)
        picks.append((chosen, counts))
        errors += sum(counts)
        words += len(nbest.reference.tokens)
    return picks, errors / words


def reference_tune(dataset, comps_per_utt, names, grid):
    """Recursive sweep over ``grid`` for each of ``names``, first name in the
    outermost loop; only a strictly lower WER replaces the best, so the first
    grid point wins a tie."""
    best = {"weights": {}, "wer": None}

    def sweep(prefix, remaining):
        if not remaining:
            _, w = reference_decode(dataset, comps_per_utt, names, prefix)
            if best["wer"] is None or w < best["wer"]:
                best["weights"], best["wer"] = dict(prefix), w
            return
        for value in grid:
            prefix[remaining[0]] = value
            sweep(prefix, remaining[1:])
        del prefix[remaining[0]]

    if names:
        sweep({}, tuple(names))
    return best["weights"]
