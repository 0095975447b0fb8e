"""Chess opening-book construction and similarity analysis."""

__version__ = "0.1.0"
