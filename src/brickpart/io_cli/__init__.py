"""Interchange format, figure exporters, and the command-line interface."""

from .document import PartitionDocument, emit_document, parse_document
from .export import ExportOptions, FigureFormat, export_figure
