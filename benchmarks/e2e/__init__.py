"""End-to-end benchmark of the three paths a user waits on (see README.md)."""
