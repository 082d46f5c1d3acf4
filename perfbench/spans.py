"""Span-stack tracer that times calls into copsurv's layers from outside.

The benchmark never edits the package.  Instead, while a pass runs, it
rebinds public functions and methods of each layer module to thin wrappers
that open and close a span.  A module-level function is rebound everywhere
it is bound in the package (``experiments`` and ``cli`` import ``fit``,
``survival_l1`` and others by name; ``datagen.censor_regression`` imports
``fit_marginal`` lazily, which reads the rebound module attribute), so a
caller cannot bypass the timer by importing the name early.

A span's self time is its duration minus the durations of the spans it
directly encloses.  A call into a span of the same name as the innermost
open span (``log_partial_u2`` calling ``log_partial_u1``) is folded into
that span: it is neither counted as a second call nor timed twice.  The
self times of all spans therefore add up to the time covered by outermost
spans, and a pass's wall time minus that cover is time spent in the
benchmark's own code (``trace.other.self_s``).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-span self time, inclusive time, calls, failures and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # [name, start, child_s, reentry_depth]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self.covered_s = 0.0

    def enter(self, name: str) -> None:
        stack = self._stack
        if stack and stack[-1][0] == name:
            stack[-1][3] += 1
            return
        stack.append([name, self.clock(), 0.0, 0])

    def exit(self) -> None:
        top = self._stack[-1]
        if top[3]:
            top[3] -= 1
            return
        self._stack.pop()
        name, start, child_s, _ = top
        duration = self.clock() - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn, count=None):
        """Returns ``fn`` wrapped in a span; ``count(tracer, bound_args, result)``
        runs after the span closes, so its cost lands in the caller."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.exit()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return wrapper

    def layer_self_s(self) -> dict:
        """Self time summed per layer, the span-name prefix before the first dot."""
        out = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return dict(out)


# ---------------------------------------------------------------------------
# Counters taken at the layer boundaries.


def _count_epochs(tracer, args, result):
    trace, best_epoch, _ = result
    tracer.counts["training.epochs"] += len(trace.epoch)
    tracer.counts["training.useful_epochs"] += best_epoch + 1


def _count_pairs(tracer, args, result):
    tracer.counts["copulas.sample_pairs.pairs"] += int(args["n"])


def _count_saved_bytes(tracer, args, result):
    tracer.counts["data.save_csv.bytes"] += os.path.getsize(args["path"])


def _count_loaded_bytes(tracer, args, result):
    tracer.counts["data.load_csv.bytes"] += os.path.getsize(args["path"])


def _count_grid_points(tracer, args, result):
    from copsurv.metrics import SurvivalL1Config

    cfg = args["config"] or SurvivalL1Config()
    tracer.counts["metrics.survival_l1.grid_points"] += len(args["x"]) * cfg.n_steps


def _count_arms(tracer, args, result):
    from copsurv import experiments

    _, payloads = experiments._arm_payloads(args["cfg"], str(args["out_dir"]))
    tracer.counts["experiments.arms_attempted"] += len(payloads)
    tracer.counts["experiments.arms_failed"] += len(result.failures)


# ---------------------------------------------------------------------------
# What gets wrapped.  Each entry is (span name, owner, attribute, counter);
# the owner is a module (the function is rebound wherever the package binds
# it) or a class (the method is replaced on the class).


def fit_targets():
    """The two entry points whose summed wall time is ``fit_s``."""
    from copsurv import training

    return [
        ("training.fit", training, "fit", None),
        ("training.fit_marginal", training, "fit_marginal", None),
    ]


def layer_targets():
    """Every layer boundary the traced run times."""
    from copsurv import copulas, data, datagen, experiments, likelihood, metrics, training, weibull

    risks = (weibull.LinearRisk, weibull.QuadraticRisk, weibull.MLPRisk)
    return fit_targets() + [
        ("training.loop", training, "_optimize", _count_epochs),
        ("training.adam_step", training.Adam, "step", None),
        ("training.tau_hat", training, "tau_hat", None),
        ("likelihood.loglik_and_gradient", likelihood, "loglik_and_gradient", None),
        ("likelihood.loglik_copula", likelihood, "loglik_copula", None),
        ("likelihood.marginal", likelihood, "marginal_loglik", None),
        ("likelihood.marginal", likelihood, "marginal_loglik_and_gradient", None),
        ("copulas.log_partial", copulas, "log_partial_u1", None),
        ("copulas.log_partial", copulas, "log_partial_u2", None),
        ("copulas.grad_log_partial", copulas, "grad_log_partial_u1", None),
        ("copulas.grad_log_partial", copulas, "grad_log_partial_u2", None),
        ("copulas.sample_pairs", copulas, "sample_pairs", _count_pairs),
        ("copulas.mixture_tau_mc", copulas, "mixture_tau_monte_carlo", None),
        *[("weibull.risk_evaluate", cls, "evaluate", None) for cls in risks],
        *[("weibull.risk_backprop", cls, "backprop", None)
          for cls in risks if "backprop" in vars(cls)],
        ("weibull.survival", weibull.WeibullCoxModel, "survival", None),
        ("weibull.inverse_survival", weibull.WeibullCoxModel, "inverse_survival", None),
        ("datagen.generate_synthetic", datagen, "generate_synthetic", None),
        ("datagen.censor_regression", datagen, "censor_regression", None),
        ("datagen.latent_save_csv", datagen.LatentOutcomes, "save_csv", None),
        ("data.save_csv", data.SurvivalDataset, "save_csv", _count_saved_bytes),
        ("data.load_csv", data.SurvivalDataset, "load_csv", _count_loaded_bytes),
        ("data.load_regression_csv", data, "load_regression_csv", None),
        ("metrics.survival_l1", metrics, "survival_l1", _count_grid_points),
        ("metrics.concordance_index", metrics, "concordance_index", None),
        ("metrics.brier_score", metrics, "brier_score", None),
        ("metrics.metric_bias_experiment", metrics, "metric_bias_experiment", None),
        ("experiments.run_experiment", experiments, "run_experiment", _count_arms),
        ("experiments.artifacts", experiments, "_save_model_artifacts", None),
        ("experiments.artifacts", experiments, "_write_csv", None),
    ]


LAYERS = ("copulas", "weibull", "likelihood", "training", "datagen", "data",
          "metrics", "experiments", "cli")

CLI_COMMANDS = ("generate", "censor", "evaluate", "experiment")

# Per-layer metrics of a traced pass: (name, unit).  ``<layer>.self_s`` plus
# ``trace.other.self_s`` add up to ``trace.wall_s``.
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("training.epochs", "count"),
        ("training.useful_epoch_frac", "ratio"),
        ("training.ms_per_epoch", "ms"),
        ("training.adam_step.self_s", "s"),
        ("training.loop.self_s", "s"),
        ("likelihood.loglik_and_gradient.calls", "count"),
        ("likelihood.loglik_and_gradient.self_s", "s"),
        ("likelihood.loglik_and_gradient.ms_per_call", "ms"),
        ("likelihood.loglik_copula.calls", "count"),
        ("likelihood.loglik_copula.self_s", "s"),
        ("likelihood.marginal.self_s", "s"),
        ("copulas.log_partial.calls", "count"),
        ("copulas.log_partial.self_s", "s"),
        ("copulas.grad_log_partial.calls", "count"),
        ("copulas.grad_log_partial.self_s", "s"),
        ("copulas.sample_pairs.self_s", "s"),
        ("copulas.sample_pairs.pairs", "count"),
        ("copulas.mixture_tau_mc.self_s", "s"),
        ("weibull.risk_evaluate.calls", "count"),
        ("weibull.risk_evaluate.self_s", "s"),
        ("weibull.risk_backprop.calls", "count"),
        ("weibull.risk_backprop.self_s", "s"),
        ("weibull.survival.self_s", "s"),
        ("weibull.inverse_survival.self_s", "s"),
        ("datagen.generate_synthetic.self_s", "s"),
        ("datagen.censor_regression.self_s", "s"),
        ("data.save_csv.self_s", "s"),
        ("data.save_csv.bytes", "bytes"),
        ("data.load_csv.self_s", "s"),
        ("data.load_csv.bytes", "bytes"),
        ("data.load_regression_csv.self_s", "s"),
        ("metrics.survival_l1.self_s", "s"),
        ("metrics.survival_l1.grid_points", "count"),
        ("metrics.concordance_index.self_s", "s"),
        ("metrics.brier_score.self_s", "s"),
        ("experiments.run_experiment.self_s", "s"),
        ("experiments.artifacts.self_s", "s"),
        ("experiments.arms_failed", "count"),
        ("experiments.arms_attempted", "count"),
    ]
    + [(f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    + [
        ("cli.nonzero_exit", "count"),
        ("trace.wall_s", "s"),
        ("trace.other.self_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)

_CALLS = ("likelihood.loglik_and_gradient", "likelihood.loglik_copula", "copulas.log_partial",
          "copulas.grad_log_partial", "weibull.risk_evaluate", "weibull.risk_backprop")
_COUNTS = ("training.epochs", "copulas.sample_pairs.pairs", "data.save_csv.bytes",
           "data.load_csv.bytes", "metrics.survival_l1.grid_points", "experiments.arms_failed",
           "experiments.arms_attempted", "cli.nonzero_exit")


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced pass, except ``trace.overhead_frac``,
    which compares traced with untraced passes."""
    self_s, total_s, counts = tracer.self_s, tracer.total_s, tracer.counts
    layer_self = tracer.layer_self_s()
    out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    out.update({f"{name}.calls": float(tracer.calls.get(name, 0)) for name in _CALLS})
    out.update({name: float(counts.get(name, 0.0)) for name in _COUNTS})
    for name, unit in PER_LAYER:
        if name.endswith(".self_s") and name not in out:
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
    epochs = counts.get("training.epochs", 0.0)
    loglik_grad = "likelihood.loglik_and_gradient"
    out["training.useful_epoch_frac"] = _ratio(counts.get("training.useful_epochs", 0.0), epochs)
    out["training.ms_per_epoch"] = 1000.0 * _ratio(total_s.get("training.loop", 0.0), epochs)
    out[f"{loglik_grad}.ms_per_call"] = 1000.0 * _ratio(
        total_s.get(loglik_grad, 0.0), tracer.calls.get(loglik_grad, 0)
    )
    out.update({f"cli.{cmd}.s": total_s.get(f"cli.{cmd}", 0.0) for cmd in CLI_COMMANDS})
    out["trace.wall_s"] = wall_s
    out["trace.other.self_s"] = wall_s - tracer.covered_s
    return out


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "copsurv" or name.startswith("copsurv."))]


@contextmanager
def installed(tracer: Tracer, targets):
    """Rebinds every target to a wrapper for the duration of the block."""
    undo = []
    modules = _package_modules()
    try:
        for name, owner, attr, count in targets:
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapper = tracer.wrap(name, original, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, value))
                            setattr(module, key, wrapper)
            else:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(tracer.wrap(name, raw.__func__, count))
                else:
                    wrapper = tracer.wrap(name, raw, count)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
