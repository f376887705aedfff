(** Binary min-heap of timestamped events: the timing wheel's overflow
    store, and the reference order the wheel is tested against.

    Ordering is {!Sched_event.before}: [(time, key, seq)] lexicographic.
    The default FIFO policy assigns every event key 0 (pure insertion
    order); the race detector assigns seeded pseudo-random keys to
    explore alternative legal orderings of simultaneous events.

    O(log n) [add]/[pop] regardless of the time distribution — the
    simple baseline the timing wheel is checked against for
    bit-identical pop order. *)

type t
(** An array-backed binary min-heap of {!Sched_event.t} cells. *)

val create : unit -> t
(** A fresh, empty heap. The backing array starts at 64 cells and grows
    geometrically as needed. *)

val length : t -> int
(** Number of events currently queued. *)

val is_empty : t -> bool
(** Whether no events are queued. *)

val add : t -> Sched_event.t -> unit
(** Insert an event cell. The heap takes ownership of the cell until it
    is returned by {!pop}. *)

val pop : t -> Sched_event.t
(** Remove and return the minimum event per {!Sched_event.before};
    returns [Sched_event.nil] (test with [==]) when empty. *)

val peek_time : t -> float
(** Time of the earliest event without removing it; [infinity] when
    empty. *)

