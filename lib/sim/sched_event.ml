(* Mutable event cell stored by the event queue.

   The timing wheel and its overflow heap store these cells; [Sim]
   recycles them through a freelist so the steady-state hot loop
   allocates nothing per event. The [next] field is an intrusive
   single-link used both by the freelist and by the wheel's front and
   slot lists — a cell is on at most one list at a time, so one link
   suffices. *)

(* Field order is deliberate: the fields the wheel's sorted list walk
   touches ([thi]/[tlo]/[key]/[seq] for [before_bits] and the
   [next] link) sit in the cell's first cache line, while the
   dispatch-only fields ([label], [run]) trail at the end — a cold cell
   walked during a wheel migration costs one line,
   and the trailing fields are read only at dispatch, when the cell is
   already warm. *)
type t = {
  mutable time : float;
  mutable thi : int;
  mutable tlo : int;
      (* queue-private cache of the IEEE-754 bit pattern of the
         time, split hi/lo 32 (set via [cache_time_bits]). For
         nonnegative times, lexicographic comparison of (thi, tlo)
         equals float comparison of the times exactly, so the wheel
         can order cells without leaving the cell's own cache line. *)
  mutable key : int;
  mutable seq : int;
  mutable next : t; (* intrusive link; physically [nil] when unlinked *)
  mutable tick : int;
      (* queue-private cache of the event's integer tick index in the
         timing wheel: the time field is a boxed float in this mixed
         record, so re-deriving the slot on a cold cell walk would cost a
         second cache miss per cell. *)
  mutable label : string;
  mutable run : unit -> unit;
}

(* Accessors for code outside the queue internals; the hot paths in
   lib/sim read the field directly. *)
let time ev = ev.time
let set_time ev t = ev.time <- t

let nop () = ()

(* Self-referencing sentinel: list ends and "no event" results are
   represented by physical equality with [nil], so the hot loop never
   allocates an option. Never mutated after creation. *)
(* simlint: allow toplevel-state *)
let rec nil =
  {
    time = neg_infinity;
    key = 0;
    seq = 0;
    label = "";
    run = nop;
    next = nil;
    tick = 0;
    thi = 0;
    tlo = 0;
  }

let make () =
  { time = 0.; key = 0; seq = 0; label = ""; run = nop; next = nil; tick = 0; thi = 0; tlo = 0 }

let before a b =
  a.time < b.time
  || (a.time = b.time && (a.key < b.key || (a.key = b.key && a.seq < b.seq)))

(* Cache the bit pattern of [time] for [before_bits]. Simulation times
   are nonnegative (the clock starts at +0 and events never schedule
   into the past), for which the IEEE-754 bit pattern is monotonic in
   the float value, so integer comparison of the halves reproduces
   float comparison exactly — including distinguishing times one ulp
   apart. *)
let cache_time_bits ev =
  let b = Int64.bits_of_float ev.time in
  ev.thi <- Int64.to_int (Int64.shift_right_logical b 32);
  ev.tlo <- Int64.to_int b land 0xFFFFFFFF

(* Rewrite [time] from the bits cached by [cache_time_bits] — the
   exact same float, freshly boxed. The wheel's pop path calls this
   instead of dereferencing the box stored at schedule time: by dispatch
   that box is an old allocation, a guaranteed cold cache line at storm
   scale, while the cached bits live in the cell line the pop just
   touched anyway. *)
let refresh_time ev =
  ev.time <-
    Int64.float_of_bits
      (Int64.logor (Int64.shift_left (Int64.of_int ev.thi) 32) (Int64.of_int ev.tlo))

(* Same total order as [before], read from the cached integer fields
   only: no boxed-float dereference, hence one cache line per cold cell
   instead of two on the wheel's sorted list walks. Valid only for
   cells that went through [cache_time_bits] since their last [time]
   update. *)
let before_bits a b =
  a.thi < b.thi
  || (a.thi = b.thi
     && (a.tlo < b.tlo
        || (a.tlo = b.tlo && (a.key < b.key || (a.key = b.key && a.seq < b.seq)))))

(* The body of a withdrawn event: [Sim] compares a popped cell's [run]
   against it physically and discards the cell undispatched, so it is
   never actually called. *)
let withdrawn () = invalid_arg "Sched_event: a withdrawn event was dispatched"

(* Withdraw a queued cell: it keeps its place — time, key and seq are
   untouched, so no live event moves — but drops its closure. *)
let withdraw ev = ev.run <- withdrawn

(* Drop closure/label references so a freelisted cell does not retain
   dead continuations or strings across simulations. *)
let clear ev =
  ev.label <- "";
  ev.run <- nop;
  ev.next <- nil
