"""`python -m seqinv`: the experiment command line."""
from .harness import main

if __name__ == "__main__":
    main()
