#!/usr/bin/env python3
"""Path loss, decode range, and the capture effect in one sitting.

Shows received power falling with distance, the analytic decode range, and
what happens at a receiver when two same-slot transmissions contend as their
separation grows.
"""

import numpy as np

from enpsim import RadioParams, Verdict, capture_verdicts, comm_range_m, received_power_dbm

radio = RadioParams()

print("== log-distance path loss (0 dBm tx, PL0 40 dB at 1 m, exponent 3) ==")
for d in (1, 2, 5, 10, 20, 40, 63.1, 80):
    p = received_power_dbm(d, radio)
    flag = "  <- decode floor" if abs(p - radio.sensitivity_dbm) < 0.5 else ""
    print(f"  {d:6.1f} m -> {p:7.2f} dBm{flag}")
print(f"\nnominal decode range: {comm_range_m(radio):.3f} m "
      f"(power == sensitivity {radio.sensitivity_dbm} dBm)\n")

print("== capture between two contenders in the same slot ==")
print("receiver at origin; contender A fixed at 10 m; B walks away from 10 m")
print(f"capture margin required: {radio.capture_threshold_db} dB\n")
print("   B at      A power   B power   verdict")
for d_b in (10.0, 11.0, 12.0, 12.6, 13.0, 15.0, 20.0, 40.0):
    # one column (the receiver), one row per contender: A then B
    power = received_power_dbm(np.array([[10.0], [d_b]]), radio)
    codes, winners = capture_verdicts(power, radio)
    verdict = Verdict(int(codes[0])).name
    if winners[0] >= 0:
        verdict += f" ({'AB'[winners[0]]})"
    print(f"  {d_b:6.1f} m  {power[0, 0]:7.2f}  {power[1, 0]:7.2f}   {verdict}")

print("\nEqual distances collide; once B falls ~3 dB behind, A captures the slot.")
print("That asymmetry is exactly what two recorders on opposite road sides create.")
