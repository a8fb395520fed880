"""Run the command-line interface as ``python -m padicfeas``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
