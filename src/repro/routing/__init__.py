"""Backbone routing over a CDS, for BCAST's traffic run."""

from .backbone import BackboneRouter

__all__ = ["BackboneRouter"]
