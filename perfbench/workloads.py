"""The benchmark's workloads: seeded inputs, one op each, and its output check.

Every op calls the public daglattice API through module attributes
(``dp.nll``, ``decode.joint_viterbi``, ``cli.main`` ...), never through
names bound at import, so the traced run, which swaps those attributes for
timing wrappers, sees every call.

Inputs are a pure function of (seed, op index, shape): the same seed gives
the same inputs, and every op gets fresh lattice contents, so no cache that
keys on lattice contents can hit across ops.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from daglattice import cli, decode, dp, gradcheck, lattice, oracle, pipeline

# Op indices at and above this are reserved for warm-up and cold-start
# inputs, so they never repeat a timed op's contents.
RESERVED_INDEX = 10**9


def _rng(seed, index):
    return np.random.default_rng([seed, index])


def _lattice(rng, graph_size, vocab_size, hidden_dim):
    return lattice.build_random(graph_size, vocab_size, hidden_dim,
                                seed=int(rng.integers(2**32)))


class TrainStep:
    """One DA-Transformer training step on a fresh L=256, V=1000, d=32 lattice.

    Target lengths cycle through M_MIX, one permutation per cycle drawn from
    a fixed seed, so every run sees the same sequence of lengths and the
    run's seed only changes the contents. The allocator's history, and with
    it peak memory, depends on the order of lengths: with the order drawn
    from the run's seed, peak RSS differed by a fifth between seeds.
    """

    name = "train-step"
    M_MIX = (16, 24, 32, 40, 48, 56, 64)
    MIX_SEED = 0
    GRAPH, VOCAB, HIDDEN = 256, 1000, 32
    TOTAL_STEPS = 1000
    MU = 5.0
    cold_shape = 40

    def shape(self, shape_index):
        cycle, pos = divmod(shape_index, len(self.M_MIX))
        order = np.random.default_rng([self.MIX_SEED, cycle]).permutation(len(self.M_MIX))
        return self.M_MIX[order[pos]]

    def make_input(self, seed, index, m):
        rng = _rng(seed, index)
        lat = _lattice(rng, self.GRAPH, self.VOCAB, self.HIDDEN)
        dur = rng.integers(1, 5, size=m)
        frames = int(dur.sum())
        return {
            "lattice": lat,
            "target": rng.integers(0, self.VOCAB, size=m),
            "step": index % (self.TOTAL_STEPS + 1),
            "durations": dur,
            "gt_mel": rng.normal(size=(frames, self.HIDDEN)),
            "pred_dur": dur + rng.normal(scale=0.3, size=m),
            "gt_dur": dur.astype(np.float64),
            "pred_pitch": rng.normal(size=m),
            "gt_pitch": rng.normal(size=m),
            "pred_energy": rng.normal(size=m),
            "gt_energy": rng.normal(size=m),
        }

    def run(self, x):
        lat, y = x["lattice"], x["target"]
        nll = dp.nll(lat, y)
        d_trans, d_emit = dp.nll_grad(lat, y)
        tau = decode.tau_schedule(x["step"], self.TOTAL_STEPS)
        glance = decode.glance_assign(lat, y, tau, seed=x["step"])
        z = dp.expected_states(lat, y).z
        mel = pipeline.length_regulate(z, x["durations"])
        tts = pipeline.tts_losses(mel, x["gt_mel"], x["pred_dur"], x["gt_dur"],
                                  x["pred_pitch"], x["gt_pitch"],
                                  x["pred_energy"], x["gt_energy"])
        loss = dp.composite_loss(nll, tts.total, self.MU)
        return {"nll": nll, "d_trans": d_trans, "d_emit": d_emit, "tau": tau,
                "glance": glance, "z": z, "loss": loss}

    def check(self, x, out):
        m = len(x["target"])
        path = out["glance"].path.vertices
        # each step uses exactly one edge and one emission: the posterior
        # edge mass sums to M-1 and the vertex mass to M
        return (abs(-float(out["d_trans"].sum()) - (m - 1)) <= 1e-6
                and abs(-float(out["d_emit"].sum()) - m) <= 1e-6
                and math.isfinite(out["nll"]) and math.isfinite(out["loss"])
                and int(out["glance"].observed_mask.sum()) == math.ceil(round(out["tau"] * m, 9))
                and len(path) == m and path[0] == 0 and path[-1] == self.GRAPH - 1
                and out["z"].shape == (m, self.HIDDEN))

    def op_counters(self, out):
        return {}


class Decode:
    """Joint-Viterbi (normalized length selection) then lookahead decoding of
    a fresh L=256, V=1000 lattice with no target."""

    name = "decode"
    GRAPH, VOCAB = 256, 1000
    cold_shape = None

    def shape(self, shape_index):
        return None

    def make_input(self, seed, index, shape):
        return {"lattice": _lattice(_rng(seed, index), self.GRAPH, self.VOCAB, 0)}

    def run(self, x):
        lat = x["lattice"]
        return (decode.joint_viterbi(lat, "normalized"), decode.lookahead(lat))

    def check(self, x, out):
        lat = x["lattice"]
        greedy = np.argmax(lat.log_emission, axis=1)
        for result in out:
            verts = result.path.vertices
            toks = result.tokens.tokens
            if verts[0] != 0 or verts[-1] != self.GRAPH - 1 or result.truncated:
                return False
            if not np.array_equal(toks, greedy[list(verts)]):
                return False
            ref = oracle.path_joint_logprob(lat, toks, verts)
            if not abs(result.joint_logprob - ref) <= 1e-9:
                return False
        return True

    def op_counters(self, out):
        return {}


class CliFiles:
    """Save a fresh L=64, M=16, V=64, d=8 lattice as JSON and binary plus a
    target file, then run four CLI commands in-process with stdout captured."""

    name = "cli-files"
    GRAPH, LENGTH, VOCAB, HIDDEN = 64, 16, 64, 8
    cold_shape = None

    def __init__(self, workdir):
        self.json_path = os.path.join(workdir, "lattice.json")
        self.bin_path = os.path.join(workdir, "lattice.bin")
        self.target_path = os.path.join(workdir, "target.json")
        self.commands = (
            ["score", "--lattice", self.json_path, "--target", self.target_path],
            ["bestpath", "--lattice", self.bin_path, "--target", self.target_path],
            ["decode", "--lattice", self.bin_path, "--strategy", "viterbi"],
            ["posterior", "--lattice", self.json_path, "--target", self.target_path],
        )

    def shape(self, shape_index):
        return None

    def make_input(self, seed, index, shape):
        rng = _rng(seed, index)
        lat = _lattice(rng, self.GRAPH, self.VOCAB, self.HIDDEN)
        target = lattice.TargetSequence(rng.integers(0, self.VOCAB, size=self.LENGTH))
        return {"lattice": lat, "target": target}

    def run(self, x):
        lattice.save_lattice(x["lattice"], self.json_path, "json")
        lattice.save_lattice(x["lattice"], self.bin_path, "binary")
        lattice.save_target(x["target"], self.target_path)
        results = []
        for argv in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["--no-timing", *argv])
            results.append((code, buf.getvalue()))
        return results

    def check(self, x, out):
        if any(code != 0 for code, _ in out):
            return False
        try:
            score, best, dec, post = (json.loads(text)["outputs"] for _, text in out)
        except (ValueError, KeyError):
            return False
        L, M = self.GRAPH, self.LENGTH
        return (abs(score["nll"] - dp.nll(x["lattice"], x["target"])) <= 1e-12
                and len(best["path"]) == M and best["path"][0] == 1 and best["path"][-1] == L
                and dec["path"][0] == 1 and dec["path"][-1] == L
                and np.allclose(np.sum(post["gamma"], axis=1), 1.0))

    def op_counters(self, out):
        return {"cli.stdout_bytes": sum(len(text.encode()) for _, text in out)}


def make(name, workdir):
    if name == TrainStep.name:
        return TrainStep()
    if name == Decode.name:
        return Decode()
    if name == CliFiles.name:
        return CliFiles(workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (TrainStep.name, Decode.name, CliFiles.name)


def oracle_cross_check(seed):
    """dp.forward, dp.posterior and decode.best_path against exhaustive
    enumeration on small lattices (L <= 10), and dp.nll_grad against finite
    differences on the smallest; run untimed at set-up."""
    rng = np.random.default_rng([seed, RESERVED_INDEX, 7])
    for _ in range(20):
        L = int(rng.integers(2, 11))
        M = int(rng.integers(2, L + 1))
        V = int(rng.integers(2, 6))
        lat = _lattice(rng, L, V, 0)
        y = rng.integers(0, V, size=M)
        if not abs(dp.forward(lat, y).log_marginal - oracle.enumerate_logprob(lat, y)) <= 1e-9:
            return False
        ref = oracle.enumerate_posterior(lat, y)
        if not np.allclose(dp.posterior(lat, y).gamma, ref.gamma, rtol=0, atol=1e-9):
            return False
        path, score = decode.best_path(lat, y)
        ref_path, _, ref_score = oracle.enumerate_argmax(lat, y)
        if path.vertices != tuple(ref_path) or not abs(score - ref_score) <= 1e-9:
            return False
        if L <= 6 and not gradcheck.finite_difference_check(lat, y)["max_rel_err"] <= 1e-5:
            return False
    return True
