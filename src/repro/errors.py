"""Exception hierarchy for the IFoT middleware reproduction.

Every error raised by this package derives from :class:`IFoTError`, so
applications embedding the middleware can catch one base class. Sub-hierarchies
mirror the package layout: simulation, networking, MQTT, machine learning and
the middleware core each have their own branch.
"""

from __future__ import annotations


class IFoTError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(IFoTError):
    """A component or scenario was configured with invalid parameters."""


class SerializationError(IFoTError):
    """A payload could not be encoded or decoded."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(IFoTError):
    """Base class for discrete-event kernel errors."""


class ClockError(SimulationError):
    """Virtual time was manipulated illegally (e.g. scheduled in the past)."""


# --------------------------------------------------------------------------
# Network substrate
# --------------------------------------------------------------------------


class NetworkError(IFoTError):
    """Base class for network substrate errors."""


class AddressError(NetworkError):
    """An endpoint address was malformed or unknown."""


class LinkDownError(NetworkError):
    """A frame was sent over a medium or link that is not operational."""


class TransportError(NetworkError):
    """The transport layer rejected an operation."""


# --------------------------------------------------------------------------
# MQTT substrate
# --------------------------------------------------------------------------


class MQTTError(IFoTError):
    """Base class for the MQTT-style pub/sub substrate."""


class TopicError(MQTTError):
    """A topic name or filter was syntactically invalid."""


class ProtocolError(MQTTError):
    """A packet violated the broker/client protocol state machine."""


class NotConnectedError(MQTTError):
    """A client operation required an active session."""


# --------------------------------------------------------------------------
# Online machine learning substrate
# --------------------------------------------------------------------------


class MLError(IFoTError):
    """Base class for the online machine learning substrate."""


class FeatureError(MLError):
    """A datum could not be converted into a feature vector."""


class ModelError(MLError):
    """A model was queried or updated in an invalid state."""


class MixError(MLError):
    """The distributed MIX protocol failed (e.g. incompatible models)."""


# --------------------------------------------------------------------------
# Middleware core
# --------------------------------------------------------------------------


class MiddlewareError(IFoTError):
    """Base class for IFoT middleware core errors."""


class RecipeError(MiddlewareError):
    """A recipe was malformed (unknown operator, cycle, dangling edge...)."""


class AssignmentError(MiddlewareError):
    """Sub-tasks could not be assigned to the available neuron modules."""


class DeploymentError(MiddlewareError):
    """The management node failed to deploy or wire a class instance."""


class DiscoveryError(MiddlewareError):
    """Stream search / dynamic membership operation failed."""


class StaticCheckError(MiddlewareError):
    """Static analysis rejected an artifact before it could deploy or run.

    Carries the full list of :class:`repro.util.validate.Diagnostic`
    findings in ``diagnostics`` (duck-typed here to keep this module
    dependency-free); the message embeds their rendered forms.
    """

    def __init__(self, summary: str, diagnostics: "tuple | list" = ()) -> None:
        self.diagnostics = list(diagnostics)
        lines = [summary]
        lines += ["  " + diag.format() for diag in self.diagnostics]
        super().__init__("\n".join(lines))
