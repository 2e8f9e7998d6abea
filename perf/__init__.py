"""Host-time benchmark for the BASE simulator (see perf/README.md)."""
