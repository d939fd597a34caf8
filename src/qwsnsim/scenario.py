"""Scenario ingestion, the seeded Monte-Carlo driver, gamma sweeps, and
report emission.

A scenario is a YAML/JSON document::

    topology:
      kind: chain                  # chain | star | mesh (star hub = first node)
      nodes:
        - {id: a, tx_power_w: 1.0, packet_length_bits: 1000}
        - {id: b, tx_power_w: 1.0, packet_length_bits: 1000}
      links:
        - src: a
          dst: b
          bandwidth_hz: 1.0e6
          signal_power_w: 1.0e-3
          noise_power_w: 1.0e-9
          interference_power_w: 0.0          # optional, default 0
          fading: {kind: rayleigh, mean_power: 1.0}   # optional, default awgn
          gamma: 2.0                          # optional, default 1
    monte_carlo: {n_samples: 1000, seed: 42}  # optional, defaults 1 / 0
    optimizer:                                # optional
      p_min_w: 0.1
      p_max_w: 5.0
      r_min_bps: 0.0                          # optional
      latency_max_s: .inf                     # optional
      weights: {alpha: 1.0, beta: 0.0}        # optional
      schedule: {t_initial: null, cooling: 0.95, iterations: 10000}  # optional
      fading: {treatment: deterministic}      # or {treatment: ergodic,
                                              #     n_samples: N, seed: S}
    output: {path: report.csv, format: csv}   # optional, default stdout/csv

Unknown keys are rejected, so a misspelt key never silently falls back to
its default, and so is a key repeated in one mapping, whose last value PyYAML
would keep. A null value means the default, as an omitted key does. Every
Monte-Carlo stream is derived from (seed, link index), so adding a link never
perturbs the draws of existing links, and a fixed seed fully determines every
output byte.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    StreamEndEvent,
)
from yaml.nodes import MappingNode, ScalarNode, SequenceNode
from yaml.scanner import ScannerError

from .channel import (
    MAX_SAMPLES,
    TRS_OFF,
    FadingDraw,
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    faded_capacity_samples,
    link_rng,
    sample_h_squared,
)
from .errors import AllSamplesOutageError, ScenarioParseError, ScenarioValidationError
from .network import (
    Link,
    LinkMetrics,
    Node,
    Topology,
    TopologyKind,
    network_totals,
    path_capacity,
)
from .numeric import is_integer, left_sum, stable_mean
from .optimizer import (
    Deterministic,
    ErgodicMean,
    FadingTreatment,
    OptResult,
    PowerProblem,
    SaSchedule,
    optimize_sa,
)

# Reserved sub-stream for the optimizer's annealing chain; link streams use
# their (small) link indices, so the two can never collide.
_SA_STREAM = 2**32 - 1


# The tags the loader builds: strings, lists and mappings, plus the scalars
# PyYAML's own converters turn into numbers, booleans, nulls, dates and bytes.
_YAML = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _YAML + "str", _YAML + "seq", _YAML + "map"
_FLOAT = _YAML + "float"
_CONVERTED = frozenset(
    _YAML + name for name in ("int", "float", "bool", "null", "timestamp", "binary")
)
# Each node class and the tags the loader builds for it.
_BUILT = {
    ScalarNode: _CONVERTED | {_STR},
    SequenceNode: frozenset((_SEQ,)),
    MappingNode: frozenset((_MAP,)),
}


# What PyYAML's scalar converters raise on a value they cannot read, e.g.
# KeyError for ``!!bool maybe``, IndexError for ``!!int ''``, ValueError for
# ``!!int x`` and AttributeError for ``!!timestamp x``.
_CONVERTER_ERRORS = (LookupError, ValueError, AttributeError)


class _Unbuilt(Exception):
    """An event ``_EventLoader`` leaves to the composing loader."""


def _malformed(node) -> ConstructorError:
    tag = node.tag.replace(_YAML, "!!", 1)
    return ConstructorError(None, None, f"cannot read {node.value!r} as {tag}", node.start_mark)


# Collections, block or flow, a node may have above it, the root included; a
# scenario needs about 5. Past that the parser stops: both composers recurse
# once per level (libyaml's C stack overflows near 30000 levels), and both
# scanners walk every open flow level on every token.
MAX_FLOW_DEPTH = 64
_TOO_DEEP = f"collections nest deeper than {MAX_FLOW_DEPTH} levels"


class _ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader that also accepts unsigned exponents like 2.0e6.
    ``load_scenario`` reaches it only through ``_EventLoader``, for the
    documents that one leaves to it: those with anchors, aliases, merge keys
    or tags, and those that fail. PyYAML's own composer and constructor then
    parse the text a second time.

    Stock YAML 1.1 resolution insists on a signed exponent and would hand
    such scalars back as strings. The libyaml parser is used when PyYAML was
    built with it; implicit resolvers run in Python either way, so ``resolve``
    keeps each plain scalar's tag for the rest of the document. A mesh
    repeats most of its scalars (keys, kinds, common values): about one in
    three is new.

    ``construct_object`` adds two rules to PyYAML's constructor, so both
    fire in its own construction order: a tag ``_BUILT`` does not list for
    its node's class is PyYAML's "could not determine a constructor" error
    at that node, and a scalar its converter cannot read is a
    ``ConstructorError`` there too. ``construct_document`` adds a third, once
    PyYAML has built the document: a key repeated among a mapping's own
    entries, not those a ``<<`` brings in, is a ``ConstructorError`` at the
    repeat, in the first such mapping in the text. A mapping that is only
    merged in is checked too.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._implicit_tags = {}  # plain scalar -> tag, for this document
        self._depth = 0  # collections above the node being composed
        self._own_keys = {}  # mapping node -> its key nodes but "<<"

    def resolve(self, kind, value, implicit):
        if kind is not ScalarNode or not implicit[0]:
            return super().resolve(kind, value, implicit)
        tags = self._implicit_tags
        tag = tags.get(value)
        if tag is None:
            tag = tags[value] = super().resolve(kind, value, implicit)
        return tag

    # Both composers call the path-resolver hooks around every node. These
    # count the nesting instead: path resolvers are not supported.
    def descend_resolver(self, parent, index):
        if self._depth > MAX_FLOW_DEPTH:
            raise ComposerError(None, None, _TOO_DEEP, parent.start_mark)
        self._depth += 1

    def ascend_resolver(self):
        self._depth -= 1

    # Only PyYAML's pure-Python scanner calls this, once per "[" or "{". Its
    # cost per token grows with the open flow levels, and it scans up to 1024
    # characters ahead of the composer that counts them.
    def fetch_flow_collection_start(self, token_class):
        if self.flow_level > MAX_FLOW_DEPTH:
            raise ScannerError(None, None, _TOO_DEEP, self.get_mark())
        super().fetch_flow_collection_start(token_class)

    def construct_object(self, node, deep=False):
        if node.tag not in _BUILT[node.__class__]:
            self.construct_undefined(node)  # raises
        try:
            return super().construct_object(node, deep)
        except _CONVERTER_ERRORS:
            raise _malformed(node) from None

    # PyYAML writes the merged entries into a mapping node the first time it
    # flattens it, which may come before the node is built, and a mapping it
    # only merges in is flattened but never built.
    def flatten_mapping(self, node):
        if node not in self._own_keys:
            self._own_keys[node] = [key for key, _ in node.value if key.tag != _YAML + "merge"]
        super().flatten_mapping(node)

    def construct_document(self, node):
        built = self.constructed_objects  # PyYAML empties it once done
        data = super().construct_document(node)
        # Every mapping has been flattened, and every key built.
        for owner in sorted(self._own_keys, key=lambda mapping: mapping.start_mark.index):
            keys = set()
            for key_node in self._own_keys[owner]:
                key = built[key_node]
                if key in keys:
                    context = "while constructing a mapping"
                    problem = f"found duplicate key {key!r}"
                    raise ConstructorError(context, owner.start_mark, problem, key_node.start_mark)
                keys.add(key)
        return data


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
        |\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)


_NO_KEY = object()  # an open mapping's pending key, before its key is read


class _EventLoader(_ScenarioLoader):
    """``_ScenarioLoader`` that builds a document straight from the parser's
    events, with no node graph in between. ``yaml.load`` must pass it the
    whole text, a ``str`` or ``bytes``, since a fallback reads it again.

    It builds one plain document of mappings, lists and scalars, tagged
    ``!`` or not at all, as ``_ScenarioLoader`` does: its scalars through the
    same memoized ``resolve`` and PyYAML's converters. A collection with
    ``MAX_FLOW_DEPTH`` others above it is left to the composer, which refuses
    its children.

    At the first event it does not build, it drops what it built and returns
    what ``_ScenarioLoader`` gives for the same text, which parses it again.
    Those events are: an alias, or an anchor; another tag; a ``<<`` or ``=``
    scalar; a collection as a key; a key repeated in one mapping; a scalar a
    converter refuses; a nesting too deep; a second document; an empty
    stream; and a scanner or parser error.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._text = stream

    def get_single_data(self):
        try:
            return self._build_document()
        except (_Unbuilt, yaml.YAMLError):
            pass
        loader = _ScenarioLoader(self._text)
        try:
            return loader.get_single_data()
        finally:
            loader.dispose()

    def construct_plain_scalar(self, tag, value, mark):
        """The object a scalar of ``tag`` at ``mark`` builds: a ``str``, or
        what PyYAML's converter for ``tag`` gives. Raises one of
        ``_CONVERTER_ERRORS`` when the converter cannot read ``value``, or
        ``KeyError`` for the tags of ``<<`` and ``=``, which have none."""
        if tag == _STR:
            return value
        if tag == _FLOAT:
            # float() reads every finite YAML float it accepts as PyYAML's
            # converter does, at a tenth of the cost. The converter keeps the
            # rest: .inf, .nan, 1:30, 1__0, ...
            try:
                number = float(value)
            except ValueError:
                pass
            else:
                if math.isfinite(number):
                    return number
        return self.yaml_constructors[tag](self, ScalarNode(tag, value, mark))

    def _build_document(self):
        get_event, resolve = self.get_event, self.resolve
        scalar = self.construct_plain_scalar
        get_event()  # StreamStartEvent
        if get_event().__class__ is not DocumentStartEvent:
            raise _Unbuilt  # an empty stream
        # The innermost open collection and its pending key, and the same
        # pair for each collection around it.
        top, key, outer = None, _NO_KEY, []
        while True:
            event = get_event()
            cls = event.__class__
            if cls is MappingEndEvent or cls is SequenceEndEvent:
                value = top
                top, key = outer.pop()
            # An alias names its anchor. The composer resolves a scalar or
            # collection tagged "!" as an untagged one.
            elif event.anchor is not None or event.tag not in (None, "!"):
                raise _Unbuilt
            elif cls is ScalarEvent:
                text = event.value
                tag = resolve(ScalarNode, text, event.implicit)
                try:
                    value = scalar(tag, text, event.start_mark)
                except _CONVERTER_ERRORS:
                    raise _Unbuilt from None
            elif len(outer) == MAX_FLOW_DEPTH or key is _NO_KEY and top.__class__ is dict:
                raise _Unbuilt
            else:
                outer.append((top, key))
                top, key = ({} if cls is MappingStartEvent else []), _NO_KEY
                continue
            if top is None:
                break
            if top.__class__ is list:
                top.append(value)
            elif key is _NO_KEY:
                key = value
            elif key in top:
                raise _Unbuilt  # a repeated key
            else:
                top[key] = value
                key = _NO_KEY
        get_event()  # DocumentEndEvent
        if get_event().__class__ is not StreamEndEvent:
            raise _Unbuilt  # a second document
        return value


@dataclass(frozen=True)
class OptimizerSection:
    """A PowerProblem without its topology, plus the annealing schedule."""

    p_min_w: float
    p_max_w: float
    r_min_bps: float = PowerProblem.r_min_bps
    latency_max_s: float = PowerProblem.latency_max_s
    alpha: float = PowerProblem.alpha
    beta: float = PowerProblem.beta
    schedule: SaSchedule = dataclasses.field(default_factory=SaSchedule)
    fading: FadingTreatment = dataclasses.field(default_factory=Deterministic)

    def to_problem(self, topology: Topology) -> PowerProblem:
        fields = {**vars(self)}
        del fields["schedule"]
        return PowerProblem(topology=topology, **fields)


@dataclass(frozen=True)
class ScenarioConfig:
    topology: Topology
    n_samples: int = 1
    seed: int = 0
    optimizer: OptimizerSection | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        # A load, a CLI flag and dataclasses.replace all get the loader's errors.
        for name in ("n_samples", "seed"):
            _read(getattr(self, name), int, f"monte_carlo.{name}")
        _read(self.output_format, _SCENARIO.fields["output"].fields["format"], "output.format")
        if self.output_path is not None:
            _read(self.output_path, str, "output.path")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            problem = f"must be between 1 and {MAX_SAMPLES}, got {self.n_samples}"
            raise ScenarioValidationError("monte_carlo.n_samples", problem)
        if not 0 <= self.seed < 2**64:
            problem = f"must fit in 64 unsigned bits, got {self.seed}"
            raise ScenarioValidationError("monte_carlo.seed", problem)
        if self.optimizer is not None:
            _build("optimizer", self.optimizer.to_problem, {"topology": self.topology})

    def echo(self) -> dict:
        """Normalized configuration tree with all defaults applied."""
        links = []
        for link in self.topology.links:
            fading: dict = {"kind": link.fading.kind.value}
            if link.fading.kind is not FadingKind.AWGN:
                fading["mean_power"] = link.fading.mean_power
            if link.fading.kind is FadingKind.RICIAN:
                fading["k_factor"] = link.fading.k_factor
            links.append(
                {
                    "src": link.src,
                    "dst": link.dst,
                    **vars(link.budget),
                    "fading": fading,
                    "gamma": link.gain.gamma,
                }
            )
        tree = {
            "topology": {
                "kind": self.topology.kind.value,
                "nodes": [{**vars(n)} for n in self.topology.nodes],
                "links": links,
            },
            "monte_carlo": {"n_samples": self.n_samples, "seed": self.seed},
            "output": {"path": self.output_path, "format": self.output_format},
        }
        if self.optimizer is not None:
            opt = self.optimizer
            fading: dict = {"treatment": "deterministic"}
            if isinstance(opt.fading, ErgodicMean):
                fading = {"treatment": "ergodic", **vars(opt.fading)}
            tree["optimizer"] = {
                "p_min_w": opt.p_min_w,
                "p_max_w": opt.p_max_w,
                "r_min_bps": opt.r_min_bps,
                # No limit echoes as null (strict JSON has no Infinity);
                # null reads back as the default.
                "latency_max_s": opt.latency_max_s if math.isfinite(opt.latency_max_s) else None,
                "weights": {"alpha": opt.alpha, "beta": opt.beta},
                "schedule": {**vars(opt.schedule)},
                "fading": fading,
            }
        return tree


@dataclass(frozen=True)
class LinkSummary:
    """One link's mean metrics over its non-outage draws, and its outage count."""

    metrics: LinkMetrics
    outage_count: int


@dataclass(frozen=True)
class RunReport:
    """What one run computed: the ``config`` it ran, one summary per link in
    the config's link order, each metric column's left-to-right sum over the
    links (``totals``), and the annealer's result if the config has an
    optimizer section."""

    config: ScenarioConfig
    links: tuple[LinkSummary, ...]
    totals: LinkMetrics
    optimization: OptResult | None


# --------------------------------------------------------------------------
# Configuration loading
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """The keys of one document mapping and the factory that builds it.

    A field's type is ``float``, ``int`` or ``str``, a tuple of the allowed
    strings, a nested ``_Table``, or a one-element list holding the table of
    every list entry. The factory receives only the keys that are present and
    not null, so an omitted or null key takes its default from the
    dataclass being built.
    """

    factory: Callable
    fields: dict
    required: tuple = ()


def _read(value, kind, path: str):
    """``value`` read as ``kind`` (see ``_Table``); errors name ``path``,
    which is empty for the document root."""
    if isinstance(kind, _Table):
        if not isinstance(value, dict):
            raise ScenarioValidationError(
                path or "<root>", f"expected a mapping, got {type(value).__name__}"
            )
        prefix = f"{path}." if path else ""
        unknown = [key for key in value if key not in kind.fields]
        if unknown:
            raise ScenarioValidationError(
                f"{prefix}{min(unknown, key=str)}", "unknown key (strict mode)"
            )
        kwargs = {}
        for key, field in kind.fields.items():
            item = value.get(key)
            if type(item) is field:  # a scalar of its field's type, as most are
                kwargs[key] = item
            elif item is not None:
                kwargs[key] = _read(item, field, prefix + key)
            elif key in kind.required:
                problem = "required value missing" if key in value else "required key missing"
                raise ScenarioValidationError(prefix + key, problem)
        return _build(path or "<root>", kind.factory, kwargs)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioValidationError(path, f"expected a list, got {type(value).__name__}")
        return tuple(_read(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value))
    if isinstance(kind, tuple):
        if value not in kind:
            raise ScenarioValidationError(path, f"expected one of {'/'.join(kind)}, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ScenarioValidationError(path, f"expected a string, got {value!r}")
        return value
    if not (is_integer(value) or kind is float and isinstance(value, float)):
        expected = "a number" if kind is float else "an integer"
        raise ScenarioValidationError(path, f"expected {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ScenarioValidationError(path, "integer too large for a float") from None


def _build(path: str, factory, kwargs: dict):
    """``factory(**kwargs)``, with a ValueError from its range rules
    reported at ``path``."""
    try:
        return factory(**kwargs)
    except ScenarioValidationError:
        raise
    except ValueError as exc:
        raise ScenarioValidationError(path, str(exc)) from None


def _link(src, dst, fading=FadingSpec.awgn(), gamma=TRS_OFF.gamma, **budget) -> Link:
    return Link(src=src, dst=dst, budget=LinkBudget(**budget), fading=fading, gain=TrsGain(gamma))


def _topology(kind, nodes, links=()):
    if not nodes:
        raise ScenarioValidationError("topology.nodes", "expected a non-empty list")
    ids = {n.id for n in nodes}
    for i, link in enumerate(links):
        for key, endpoint in (("src", link.src), ("dst", link.dst)):
            if endpoint not in ids:
                raise ScenarioValidationError(
                    f"topology.links[{i}].{key}", f"references undeclared node {endpoint!r}"
                )
    return Topology(kind=TopologyKind(kind), nodes=nodes, links=links)


def _treatment(treatment, **ergodic) -> FadingTreatment:
    if treatment == "ergodic":
        return ErgodicMean(**ergodic)
    if ergodic:
        raise ValueError(f"{min(ergodic)} is only valid for the ergodic treatment")
    return Deterministic()


def _optimizer(weights={}, **fields) -> OptimizerSection:
    return OptimizerSection(**fields, **weights)


def _config(monte_carlo={}, output={}, **sections) -> ScenarioConfig:
    # `topology` and `optimizer` are ScenarioConfig fields of the same name.
    return ScenarioConfig(**sections, **monte_carlo, **output)


_FADING = _Table(
    lambda kind, **fields: FadingSpec(FadingKind(kind), **fields),
    {"kind": tuple(k.value for k in FadingKind), "mean_power": float, "k_factor": float},
    required=("kind",),
)
_NODE = _Table(
    Node,
    {"id": str, "tx_power_w": float, "packet_length_bits": float},
    required=("id", "tx_power_w", "packet_length_bits"),
)
_LINK = _Table(
    _link,
    {
        "src": str,
        "dst": str,
        "bandwidth_hz": float,
        "signal_power_w": float,
        "noise_power_w": float,
        "interference_power_w": float,
        "fading": _FADING,
        "gamma": float,
    },
    required=("src", "dst", "bandwidth_hz", "signal_power_w", "noise_power_w"),
)
_TOPOLOGY = _Table(
    _topology,
    {"kind": tuple(k.value for k in TopologyKind), "nodes": [_NODE], "links": [_LINK]},
    required=("kind", "nodes"),
)
_OPTIMIZER = _Table(
    _optimizer,
    {
        "p_min_w": float,
        "p_max_w": float,
        "r_min_bps": float,
        "latency_max_s": float,
        "weights": _Table(dict, {"alpha": float, "beta": float}),
        "schedule": _Table(SaSchedule, {"t_initial": float, "cooling": float, "iterations": int}),
        "fading": _Table(
            _treatment,
            {"treatment": ("deterministic", "ergodic"), "n_samples": int, "seed": int},
            required=("treatment",),
        ),
    },
    required=("p_min_w", "p_max_w"),
)
_SCENARIO = _Table(
    _config,
    {
        "topology": _TOPOLOGY,
        "monte_carlo": _Table(dict, {"n_samples": int, "seed": int}),
        "optimizer": _OPTIMIZER,
        "output": _Table(
            lambda **fields: {f"output_{key}": value for key, value in fields.items()},
            {"path": str, "format": ("csv", "json")},
        ),
    },
    required=("topology",),
)


def load_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document.

    A plain document is built from the parser's events; one with anchors,
    aliases, merge keys or tags, or one that fails to parse, is parsed a
    second time by PyYAML's own composer and constructor (see
    ``_EventLoader``), which takes such a mesh about 2.5 times as long.
    Both happen in one ``yaml.load`` call.

    Raises ScenarioParseError for malformed documents, a key repeated in one
    mapping or a node under more than MAX_FLOW_DEPTH collections included
    (the parser stops there), and ScenarioValidationError (with the
    offending field path) for constraint violations.
    """
    try:
        raw = yaml.load(text, Loader=_EventLoader)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"malformed scenario document: {exc}") from None
    if raw is None:
        raise ScenarioParseError("empty scenario document")
    return _read(raw, _SCENARIO, "")


# --------------------------------------------------------------------------
# Monte-Carlo driver
# --------------------------------------------------------------------------


def sa_rng(seed: int) -> np.random.Generator:
    """The annealing chain's generator: the scenario seed's reserved sub-stream."""
    return link_rng(seed, _SA_STREAM)


def simulate_link(node: Node, link: Link, h_squared: np.ndarray) -> tuple[LinkMetrics, int]:
    """One link's metrics over an array of fading draws, at its ergodic rate.

    This is the one place a link's capacity becomes its time, energy and TRS
    metrics. Only the capacity is averaged: a packet spans many coherence
    blocks, so at the mean capacity C it takes L / C seconds and P * L / C
    joules (Goldsmith, *Wireless Communications*, 2005, ch. 4). The latency
    is the time; TRS multiplies the capacity by gamma and divides the rest.

    A draw whose capacity is not positive, or so small that its time or
    energy is not finite, is counted as an outage and left out of the mean.
    Raises AllSamplesOutageError when nothing is left to average, and
    ValueError when the mean TRS capacity overflows.

    The capacities are computed in the draws' own buffer: a C-contiguous,
    writeable float64 ``h_squared`` holds scratch values afterwards, as
    ``received_capacity``'s array argument does. Any other input (a list, a
    strided or read-only view, another dtype) is copied first and left as it
    was.
    """
    # In C order the capacities lie in one contiguous row: along a strided
    # one numpy may not sum pairwise, as stable_mean's 1-D sum does.
    caps = np.require(h_squared, float, "CW").reshape(-1)
    length, power = node.packet_length_bits, node.tx_power_w
    # Overflow and 0/0 are expected here: they mark outages, or a mean that is
    # rejected below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        faded_capacity_samples(link.budget, caps, out=caps)
        # P * (L / C) falls as C grows, so when the least capacity is usable
        # every draw is. A NaN capacity makes the least NaN; no draws, inf.
        least = float(caps.min(initial=math.inf))
        outages = 0
        if not (0 < least < math.inf and math.isfinite(power * (length / least))):
            usable = np.isfinite(power * (length / caps)) & (caps > 0)
            used = int(np.count_nonzero(usable))
            if used == 0:
                raise AllSamplesOutageError(link.id)
            outages = caps.size - used
            caps = caps[usable]
        mean_cap = stable_mean(caps, caps)
    gamma = link.gain.gamma
    mean_cap_trs = gamma * mean_cap
    # B log2(1 + SNR), or gamma times it, overflowed (an inf draw leaves
    # inf - inf = NaN in the mean).
    if not math.isfinite(mean_cap_trs):
        raise ValueError(f"capacity overflows: mean TRS capacity is {mean_cap_trs} bit/s")
    tx_time = length / mean_cap
    energy = power * tx_time
    return LinkMetrics(
        capacity_bps=mean_cap,
        capacity_trs_bps=mean_cap_trs,
        tx_time_s=tx_time,
        tx_time_trs_s=tx_time / gamma,
        energy_j=energy,
        energy_trs_j=energy / gamma,
        latency_s=tx_time,
        latency_trs_s=tx_time / gamma,
    ), outages


def link_metrics(node: Node, link: Link, draw: FadingDraw) -> LinkMetrics:
    """Evaluate one link under one fading draw: ``simulate_link`` on one sample.

    ``node`` is the transmitting (source) node; its power and packet length
    drive the energy and time figures. A draw in outage raises
    AllSamplesOutageError, and a capacity that overflows ValueError.
    """
    if node.id != link.src:
        raise ValueError(f"node {node.id!r} is not the source of link {link.id}")
    return simulate_link(node, link, np.array([draw.h_squared]))[0]


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute the Monte-Carlo scenario.

    Per link: draw fading from the link's private seeded stream, average the
    capacity over non-outage draws and derive the link's metrics from that
    mean (``simulate_link``), then add up each metric column
    (``network_totals``). If an optimizer section is present, the annealing
    solver runs on a reserved sub-stream of the same seed.
    """
    topology = config.topology
    links = topology.links
    if not links:
        raise ScenarioValidationError("topology.links", "scenario needs at least one link")
    nodes = {n.id: n for n in topology.nodes}

    # Every link draws into the same two rows, so no per-link array is fresh
    # memory whose pages fault in on first touch. The draws land in row 0,
    # which simulate_link turns into their capacities; row 1 is the Rician
    # scratch.
    work = np.empty((2, config.n_samples))
    summaries = []
    for i, link in enumerate(links):
        rng = link_rng(config.seed, i)
        h2 = sample_h_squared(link.fading, rng, size=config.n_samples, out=work)
        try:
            metrics, outages = simulate_link(nodes[link.src], link, h2)
        except ValueError as exc:
            raise ScenarioValidationError(f"topology.links[{i}]", str(exc)) from exc
        # A zero transmit power, or a packet time that underflows, leaves 0/0
        # in a TRS ratio of the report.
        means = (metrics.tx_time_s, metrics.tx_time_trs_s, metrics.energy_j, metrics.energy_trs_j)
        if not all(0.0 < mean < math.inf for mean in means):
            raise ScenarioValidationError(
                f"topology.links[{i}]",
                "TRS ratios undefined: mean times and energies must be finite and > 0, "
                "got {} s, TRS {} s, {} J, TRS {} J".format(*means),
            )
        summaries.append(LinkSummary(metrics, outages))

    totals = network_totals([s.metrics for s in summaries])
    for name, total in vars(totals).items():
        if not math.isfinite(total):
            raise ScenarioValidationError("topology.links", f"the total of {name} overflows")

    optimization = None
    if config.optimizer is not None:
        problem = config.optimizer.to_problem(topology)
        optimization = optimize_sa(problem, config.optimizer.schedule, sa_rng(config.seed))

    return RunReport(config, tuple(summaries), totals, optimization)


def gamma_sweep(config: ScenarioConfig, gammas: list[float]) -> list[tuple[float, RunReport]]:
    """Run the scenario once per gain value with every link's gamma replaced.

    The seed is reused for each entry, so the fading draws are identical
    across the sweep: energy and latency totals scale as 1/gamma, throughput
    as gamma.
    """
    if not gammas:
        raise ValueError("gamma sweep requires at least one value")
    out = []
    for gamma in gammas:
        gain = TrsGain(gamma)
        links = tuple(dataclasses.replace(link, gain=gain) for link in config.topology.links)
        topology = Topology(kind=config.topology.kind, nodes=config.topology.nodes, links=links)
        swept = dataclasses.replace(config, topology=topology)
        out.append((gamma, run_scenario(swept)))
    return out


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

CSV_HEADER = ",".join(("link_id", *LinkMetrics.__dataclass_fields__, "outages"))
SWEEP_CSV_HEADER = "gamma,total_throughput_bps,total_energy_j,total_latency_s"
# The characters that make RFC 4180 quote a field.
_CSV_QUOTED = re.compile('[,"\r\n]')


def _fmt(value: float) -> str:
    return format(value, ".17g")  # 17 significant digits round-trip any IEEE double


def _csv(header: str, rows) -> str:
    """``header``, then one line per ``(label, numbers, *cells)`` row; the
    label, the only text cell, is quoted as RFC 4180 says."""
    lines = [header]
    for label, numbers, *cells in rows:
        if _CSV_QUOTED.search(label):
            label = '"' + label.replace('"', '""') + '"'
        lines.append(",".join([label, *map(_fmt, numbers), *cells]))
    return "\n".join(lines) + "\n"


def dump_json(tree) -> str:
    """``json.dumps(tree, indent=2, allow_nan=False) + "\\n"``, built in one pass.

    Before 3.14, ``json`` indents in pure Python: a generator per container, a
    yield per token. Subclasses read as in ``json`` (``np.float64`` a float, a
    tuple a list); NaN and +-inf raise ValueError, a non-str key TypeError.
    """
    parts: list[str] = []
    append = parts.append
    float_text, int_text, str_text = float.__repr__, int.__repr__, encode_basestring_ascii
    inf = math.inf
    breaks = ["\n"]  # a newline and the indentation of each depth
    keys: dict[str, str] = {}  # each key seen, encoded and followed by ": "

    def emit(o, depth: int) -> None:
        if type(o) is float:
            if not -inf < o < inf:
                raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
            append(float_text(o))
        elif isinstance(o, str):
            append(str_text(o))
        elif isinstance(o, (dict, list, tuple)):
            emit_container(o, depth + 1)
        elif o is None or o is True or o is False:
            append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            append(int_text(o))
        elif isinstance(o, float):
            emit(float.__float__(o), depth)
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def emit_container(o, depth: int) -> None:
        is_dict = isinstance(o, dict)
        if not o:
            append("{}" if is_dict else "[]")
            return
        if depth == len(breaks):
            breaks.append(breaks[-1] + "  ")
        sep, comma = ("{" if is_dict else "[") + breaks[depth], "," + breaks[depth]
        for item in o.items() if is_dict else o:
            append(sep)
            sep = comma
            if is_dict:
                key, item = item
                text = keys.get(key)
                if text is None:
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    text = keys[key] = str_text(key) + ": "
                append(text)
            emit(item, depth)
        append(breaks[depth - 1])
        append("}" if is_dict else "]")

    emit(tree, 0)
    append("\n")
    return "".join(parts)


def optimization_tree(result: OptResult) -> dict:
    """JSON-ready tree of an optimizer result (the `optimize` command's output):
    its fields in order, the solver by name and the allocation as ``powers_w``."""
    tree = {**vars(result), "solver": result.solver.value}
    tree["powers_w"] = list(tree.pop("allocation").powers_w)
    return tree


def report_tree(report: RunReport) -> dict:
    """JSON-ready tree of a run report (stable field order). A chain's
    bottleneck is its weakest TRS capacity; other topologies have none."""
    chain = report.config.topology.kind is TopologyKind.CHAIN
    tree = {
        "seed": report.config.seed,
        "n_samples": report.config.n_samples,
        "links": [
            {
                "link_id": link.id,
                **vars(m := s.metrics),
                "outages": s.outage_count,
                "samples_used": report.config.n_samples - s.outage_count,
                "trs_ratios": {
                    "capacity_gain": m.capacity_trs_bps / m.capacity_bps,
                    "time_reduction": m.tx_time_s / m.tx_time_trs_s,
                    "energy_reduction": m.energy_j / m.energy_trs_j,
                    "latency_reduction": m.latency_s / m.latency_trs_s,
                },
            }
            for link, s in zip(report.config.topology.links, report.links)
        ],
        "totals": {
            "throughput_bps": report.totals.capacity_trs_bps,
            "energy_j": report.totals.energy_trs_j,
            "latency_s": report.totals.latency_trs_s,
            "bottleneck_capacity_bps": (
                path_capacity([s.metrics.capacity_trs_bps for s in report.links]) if chain else None
            ),
        },
        "config": report.config.echo(),
    }
    if report.optimization is not None:
        tree["optimization"] = optimization_tree(report.optimization)
    return tree


def emit_report(report: RunReport) -> str:
    """Render a report in its config's ``output_format``: CSV (fixed column
    contract) or JSON. The CSV TOTALS row carries ``report.totals``; optimizer
    results appear only in JSON."""
    if report.config.output_format == "json":
        return dump_json(report_tree(report))
    links = zip(report.config.topology.links, report.links)
    rows = [(link.id, vars(s.metrics).values(), str(s.outage_count)) for link, s in links]
    outages = left_sum(s.outage_count for s in report.links)
    rows.append(("TOTALS", vars(report.totals).values(), str(outages)))
    return _csv(CSV_HEADER, rows)


def emit_sweep(results: list[tuple[float, RunReport]]) -> str:
    """``gamma_sweep``'s non-empty results, in their config's ``output_format``:
    CSV (TRS totals per gamma) or JSON (``{gamma, report}``s)."""
    if results[0][1].config.output_format == "json":
        return dump_json([{"gamma": g, "report": report_tree(r)} for g, r in results])
    rows = [
        (_fmt(g), (r.totals.capacity_trs_bps, r.totals.energy_trs_j, r.totals.latency_trs_s))
        for g, r in results
    ]
    return _csv(SWEEP_CSV_HEADER, rows)
