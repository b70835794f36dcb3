"""Request/response schemas of the synthesis service (:mod:`repro.service`).

The service speaks canonical JSON (:func:`repro.io.campaign_json.
canonical_dumps`) in both directions, and every document carries a
``format`` name and schema ``version`` stamp so clients can detect
incompatible servers before trusting a payload.  Three document
shapes exist:

``crusade-request``
    What ``POST /synthesize`` accepts: an embedded ``crusade-spec``
    document (:mod:`repro.io.spec_json`), an optional ``config`` map
    of whitelisted :class:`~repro.core.config.CrusadeConfig` overrides
    (:data:`SERVICE_CONFIG_FIELDS`), and an optional ``catalog`` name
    (only ``"default"`` exists today).  Every other key -- the
    store-plumbing ``cache_dir`` and the result-neutral search knobs
    ``prune``/``bound_abort`` included -- is *rejected*, not ignored:
    the server owns its store and its search, and silently dropping a
    key a client believed in would be worse than a 400.

``crusade-response``
    What the server returns for an admitted request: ``status``
    (``"done"`` or ``"failed"``), the content-address ``key`` triple
    (spec/catalog/config digests -- the dedupe identity of the
    request), ``cache_hit``/``coalesced`` provenance flags, and either
    a run-neutral ``result`` payload (the ``crusade-result`` export
    with the run-varying ``cpu_seconds``/``stats`` fields stripped, so
    a computed response and a later cache-served response of the same
    request are byte-identical) or a structured ``error``.

``crusade-error``
    What admission failures return (400/404/405/413/503): an ``error``
    object with a machine-readable ``kind`` and a human ``detail``,
    plus a flat ``errors`` list for validation failures so a client
    can surface every problem at once.

Validation happens *here*, before anything touches the synthesis
engine: :func:`validate_request` either returns the parsed
``(spec, config overrides)`` pair or raises
:class:`RequestValidationError` carrying the full error list.  Config
values are checked by ``CrusadeConfig``'s own validation, so a request
the engine would refuse is refused at admission.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import CrusadeConfig
from repro.errors import SpecificationError
from repro.graph.spec import SystemSpec
from repro.io.spec_json import spec_from_dict, spec_to_dict

#: Format names stamped into every service document.
REQUEST_FORMAT = "crusade-request"
RESPONSE_FORMAT = "crusade-response"
ERROR_FORMAT = "crusade-error"

#: Bumped only when a key of any service document changes meaning.
SERVICE_SCHEMA_VERSION = 1

#: Resource catalogs a request may name; the paper's part library is
#: the only one shipped.
KNOWN_CATALOGS = ("default",)

#: ``CrusadeConfig`` fields a request's ``config`` map may override:
#: every JSON-scalar knob of the synthesis semantics.  Deliberately
#: absent: ``cache_dir`` (the server owns its store), ``prune`` and
#: ``bound_abort`` (result-neutral, so a request could only change how
#: long its answer takes), ``delay_policy``/``link_strategies``
#: (structured values with no JSON contract yet).  Maps field name to
#: the accepted JSON types.
SERVICE_CONFIG_FIELDS: Dict[str, tuple] = {
    "reconfiguration": (bool,),
    "clustering": (bool,),
    "max_explicit_copies": (int,),
    "max_cluster_size": (int,),
    "preemption": (bool,),
    "max_existing_options": (int,),
    "fast_inner_loop": (bool, type(None)),
    "fast_threshold_tasks": (int,),
    "combine_modes": (bool,),
    "interface_retries": (int,),
    "policy": (str,),
}

#: ``error.kind`` values admission can produce, mapped to the HTTP
#: status the server sends them with (the failure-mode table in
#: docs/SERVICE.md documents each).
ERROR_KINDS = {
    "invalid-json": 400,
    "bad-request": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "payload-too-large": 413,
    "internal": 500,
    "draining": 503,
}


class RequestValidationError(ValueError):
    """A ``crusade-request`` document failed admission validation.

    ``errors`` holds every problem found (not just the first), in a
    stable order, so one 400 round-trip surfaces them all.
    """

    def __init__(self, errors: List[str]) -> None:
        """Wrap the full ``errors`` list; the message shows them all."""
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# ----------------------------------------------------------------------
# request side
# ----------------------------------------------------------------------
def build_request(
    spec: SystemSpec, config: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """A ``crusade-request`` document for ``spec`` (the client side).

    ``config`` is passed through as given -- the *server* validates it
    against :data:`SERVICE_CONFIG_FIELDS`, so a stale client cannot
    silently drop a knob a newer server would honour.
    """
    return request_from_spec_payload(spec_to_dict(spec), config)


def request_from_spec_payload(
    spec_payload: Mapping[str, Any],
    config: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A ``crusade-request`` wrapping an already-serialized spec doc.

    The ``repro submit`` client reads spec JSON files straight from
    disk; round-tripping them through :class:`SystemSpec` here would
    only mask file errors the server must diagnose anyway.
    """
    payload: Dict[str, Any] = {
        "format": REQUEST_FORMAT,
        "version": SERVICE_SCHEMA_VERSION,
        "catalog": "default",
        "spec": dict(spec_payload),
    }
    if config:
        payload["config"] = dict(config)
    return payload


def _check_config(config: Any, errors: List[str]) -> Dict[str, Any]:
    """Validate the ``config`` map; returns the accepted overrides."""
    if config is None:
        return {}
    if not isinstance(config, dict):
        errors.append("config: expected an object, got %s" % _typename(config))
        return {}
    accepted: Dict[str, Any] = {}
    for key in sorted(config):
        value = config[key]
        allowed = SERVICE_CONFIG_FIELDS.get(key)
        if allowed is None:
            errors.append("config.%s: unknown or non-overridable field" % key)
            continue
        # bool is an int subclass; an int-typed knob must not accept
        # JSON true/false.
        if isinstance(value, bool) and bool not in allowed:
            errors.append("config.%s: expected %s, got boolean"
                          % (key, _typenames(allowed)))
            continue
        if not isinstance(value, allowed):
            errors.append("config.%s: expected %s, got %s"
                          % (key, _typenames(allowed), _typename(value)))
            continue
        accepted[key] = value
    return accepted


def _typename(value: Any) -> str:
    """The JSON-ish name of ``value``'s type for error messages."""
    return {
        bool: "boolean", int: "integer", float: "number", str: "string",
        list: "array", dict: "object", type(None): "null",
    }.get(type(value), type(value).__name__)


def _typenames(allowed: tuple) -> str:
    """Human list of accepted types for one config field."""
    names = {
        bool: "boolean", int: "integer", str: "string", type(None): "null",
    }
    return "/".join(names.get(t, t.__name__) for t in allowed)


def validate_request(
    payload: Any,
) -> Tuple[SystemSpec, Dict[str, Any]]:
    """Admission-validate one ``crusade-request`` document.

    Returns ``(spec, config overrides)`` on success; raises
    :class:`RequestValidationError` listing *every* problem found
    otherwise.  Nothing here touches the synthesis engine -- a
    malformed request is rejected before it can cost anything.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        raise RequestValidationError(
            ["request: expected an object, got %s" % _typename(payload)]
        )
    if payload.get("format") != REQUEST_FORMAT:
        errors.append("format: expected %r, got %r"
                      % (REQUEST_FORMAT, payload.get("format")))
    if payload.get("version") != SERVICE_SCHEMA_VERSION:
        errors.append("version: expected %d, got %r"
                      % (SERVICE_SCHEMA_VERSION, payload.get("version")))
    catalog = payload.get("catalog", "default")
    if catalog not in KNOWN_CATALOGS:
        errors.append("catalog: unknown catalog %r (known: %s)"
                      % (catalog, ", ".join(KNOWN_CATALOGS)))
    overrides = _check_config(payload.get("config"), errors)
    try:
        CrusadeConfig(**overrides)
    except SpecificationError as exc:
        errors.append("config: %s" % exc)
    spec = None
    spec_payload = payload.get("spec")
    if not isinstance(spec_payload, dict):
        errors.append("spec: expected a crusade-spec object, got %s"
                      % _typename(spec_payload))
    else:
        try:
            spec = spec_from_dict(spec_payload)
        except SpecificationError as exc:
            errors.append("spec: %s" % exc)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            errors.append("spec: malformed document (%s: %s)"
                          % (type(exc).__name__, exc))
    if errors:
        raise RequestValidationError(errors)
    assert spec is not None
    return spec, overrides


# ----------------------------------------------------------------------
# response side
# ----------------------------------------------------------------------
def strip_run_varying(result_payload: Dict[str, Any]) -> Dict[str, Any]:
    """A run-neutral copy of a ``crusade-result`` export.

    Drops ``cpu_seconds`` and the traced ``stats`` block -- the only
    legitimately run-varying fields -- so a computed response and a
    cache-served response of the same request carry byte-identical
    ``result`` payloads (the service's headline contract, asserted by
    ``tests/service/test_cli_serve.py``).
    """
    neutral = dict(result_payload)
    neutral.pop("cpu_seconds", None)
    neutral.pop("stats", None)
    return neutral


def done_response(
    key: Mapping[str, str],
    result_payload: Dict[str, Any],
    cache_hit: bool,
    coalesced: bool,
) -> Dict[str, Any]:
    """A successful ``crusade-response`` document."""
    return {
        "format": RESPONSE_FORMAT,
        "version": SERVICE_SCHEMA_VERSION,
        "status": "done",
        "cache_hit": bool(cache_hit),
        "coalesced": bool(coalesced),
        "key": dict(key),
        "result": strip_run_varying(result_payload),
    }


def failed_response(
    key: Mapping[str, str],
    kind: str,
    detail: str,
    coalesced: bool = False,
) -> Dict[str, Any]:
    """A ``crusade-response`` for a job that failed after admission.

    ``kind`` names the supervision verdict (``"crash"``, ``"timeout"``
    or ``"error"``); ``detail`` carries the traceback or supervisor
    message.  This is the structured degradation contract: a worker
    crash becomes a parseable document, never a hung connection.
    """
    return {
        "format": RESPONSE_FORMAT,
        "version": SERVICE_SCHEMA_VERSION,
        "status": "failed",
        "cache_hit": False,
        "coalesced": bool(coalesced),
        "key": dict(key),
        "error": {"kind": kind, "detail": detail},
    }


def error_body(
    kind: str, detail: str, errors: Optional[List[str]] = None
) -> Dict[str, Any]:
    """A ``crusade-error`` document for an admission failure.

    ``kind`` must be one of :data:`ERROR_KINDS`; the server pairs it
    with that table's HTTP status.
    """
    if kind not in ERROR_KINDS:
        raise ValueError("unknown service error kind %r" % (kind,))
    body: Dict[str, Any] = {
        "format": ERROR_FORMAT,
        "version": SERVICE_SCHEMA_VERSION,
        "error": {"kind": kind, "detail": detail},
    }
    if errors:
        body["error"]["errors"] = list(errors)
    return body


def result_bytes(response: Mapping[str, Any]) -> bytes:
    """Canonical bytes of a response's ``result`` payload.

    The comparison primitive of the byte-identity contract: two
    responses for the same request -- computed, cache-served, or
    coalesced -- must agree under this function exactly.
    """
    return json.dumps(
        response.get("result"), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
