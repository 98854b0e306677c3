TOOL_NAME = "cwsa-eval"
__version__ = "0.2.0"
