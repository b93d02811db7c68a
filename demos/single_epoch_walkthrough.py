#!/usr/bin/env python3
"""One epoch, blow by blow: schedule, radio events, and what got recorded.

A small static scene around one recorder pair, run for a single epoch with
the event log on.  Two of the three vehicles hash to the same slot, so the
log shows the clash and the paired recorders resolving it from opposite
sides of the road.
"""

from enpsim import (
    Fleet,
    HashParams,
    RadioParams,
    RoadGeometry,
    TimingParams,
    Vehicle,
    World,
    mid_square_slot,
    run_epoch,
)

geometry = RoadGeometry(vr_pair_xs=(100.0,))
hash_params = HashParams(slot_count=71)
vehicles = [
    Vehicle(vrn=4000000000023333331, x=geometry.ring_x(100.0), y=1.0, speed_mps=0.0),
    Vehicle(vrn=4000000000031111108, x=geometry.ring_x(100.0), y=6.0, speed_mps=0.0),
    Vehicle(vrn=9876543210, x=geometry.ring_x(90.0), y=3.0, speed_mps=0.0),
]

print("the scene: one recorder pair at road x=100 (lateral -2 m and +9 m)")
for v in vehicles:
    print(f"  vrn {v.vrn:>20d}  road ({geometry.road_x(v.x):5.1f}, {v.y:3.1f})  "
          f"slot {mid_square_slot(v.vrn, hash_params)}")
print("  (the first two share slot 10: a hash clash on purpose)\n")

world = World(
    Fleet.from_vehicles(vehicles, geometry.ring_length_m),
    geometry,
    RadioParams(),
    hash_params,
    TimingParams(),
)
result = run_epoch(world, 0, record_events=True)

sched = result.schedule
print(f"schedule: sync window {sched.sync_window_us // 1000} ms, then "
      f"{sched.round_count} rounds of 1 probe + {sched.slot_count} slots "
      f"({sched.round_len_us // 1000} ms each)\n")

print("event log, round 0 only (time_us  event  node  pair  epoch  round  slot  vrn):")
round1_start = sched.round_start_us(1)
for line in result.events:
    if int(line.split("\t")[0]) < round1_start:
        print("  " + line.replace("\t", "  "))

print("\nrecords after the epoch:")
# result.records holds one (recorder, vehicle, round, slot) row per first decode
vrns = result.fleet_start.vrn.tolist()
for j, vr_id in enumerate(world.vr_ids):
    rows = sorted((vrns[tag], rnd, slot) for vr, tag, rnd, slot in result.records.tolist() if vr == j)
    entries = ", ".join(f"{vrn} (round {rnd}, slot {slot})" for vrn, rnd, slot in rows)
    print(f"  {vr_id}: {entries or '-'}")

rec_a, rec_b = result.pair_record_sets(0)
print(f"\nunion of the pair: {len(rec_a | rec_b)} of {len(vehicles)} vehicles -- "
      "the clash cost neither, because each recorder captured its nearer contender.")
