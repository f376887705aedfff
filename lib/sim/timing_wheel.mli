(** Hierarchical timing wheel with an overflow heap: the simulator's
    event queue.

    A small sorted "front" list holds every event at or before the
    current edge; three 32768-slot wheel levels cover ~3.9 ms, ~128 s
    and ~48 days beyond it (at the ~0.12 us tick), and an
    overflow heap absorbs everything past that horizon. Adds are O(1); the
    amortised pop cost is independent of the total pending count, which
    is where it beats the O(log n) binary heap at cluster-scale pending
    populations.

    Ordering contract: identical to {!Sched_event.before} — [(time,
    key, seq)] lexicographic — and bit-identical in dispatch order to
    {!Event_heap}. The tick is a power of two (exact time-to-tick
    mapping) and the edge is an integer tick index; the edge never
    passes an unmigrated event, and equal-time events always share a
    bucket, so no reordering is possible. *)

type t
(** A hierarchical timing wheel of {!Sched_event.t} cells. *)

val create : unit -> t
(** A fresh, empty wheel. Its level-0 slot granularity is a fixed
    [0x1p-23] s (~0.12 us) tick. A fine tick matters at scale: per-tick
    occupancy bounds the sorted front-list insert walk, which is
    quadratic in events per tick. *)

val length : t -> int
(** Number of events currently queued. *)

val add : t -> Sched_event.t -> unit
(** Insert an event cell; the wheel owns the cell until {!pop_until}
    returns it. O(1). *)

val peek_time : t -> float
(** Time of the earliest event without removing it; [infinity] when
    empty. May advance the wheel edge over empty slots (observably
    pure). *)

val pop_until : t -> float -> Sched_event.t
(** [pop_until w limit] pops the minimum event if its time is [<= limit];
    [Sched_event.nil] when the wheel is empty or the minimum lies beyond
    [limit]. Fused peek-then-pop for the engine's hot loop. Amortised
    O(1): a head unlink from the sorted front list. *)
