"""Token-category attention encoder for code clone detection."""

__version__ = "0.1.0"
