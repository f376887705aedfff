(* Hierarchical timing wheel with an overflow heap: the simulator's
   event queue.

   Geometry: a sorted intrusive "front" list holding every event at or
   before the current front edge, three wheel levels of [w = 32768]
   slots each (spans of w, w^2 and w^3 ticks), and an overflow heap for
   events beyond the w^3-tick horizon. With the ~0.12 us tick
   the levels cover ~3.9 ms / ~128 s / ~48 days, so virtually all
   timers a cluster simulation arms land inside the wheel; only far
   stragglers wait in the overflow heap until the edge approaches.

   Adds are O(1): bucket the event by its distance from the front edge.
   Pops serve the front list; when it drains, [advance] walks the edge
   forward, migrating level-0 slots into the front list and cascading
   level-1/2 slots down exactly when the edge enters their region.
   The wide levels mean an event is re-bucketed at most twice before
   dispatch — and the common short timers of a steady-state storm
   (sub-level-0-span re-arms) go straight to level 0 and are touched
   cold exactly once. Every re-bucketing walk costs one cache miss per
   cell — the dominant cost at cluster scale, which is why fewer,
   wider levels beat a taller tower here. The tick is deliberately
   fine: per-tick occupancy bounds the sorted front-list insert walk,
   which is quadratic in events-per-tick, so at tens of millions of
   pending events a coarse tick turns the front list into the
   bottleneck long before slot-array footprint matters.

   The front is a list, not a heap, because comparisons dereference
   event cells (the time field of a mixed record is a boxed float): a
   sorted insert into a handful of just-migrated, cache-warm cells is
   cheaper than heap sifts, pop is a head unlink, and a tail pointer
   gives O(1) appends — the path taken by same-instant FIFO bursts
   (spawn / suspend wake-ups at [now]), whose seq-ordered keys always
   sort last.

   Determinism: dispatch order must be bit-identical to the binary
   heap's. The tick is a power of two, so [time / tick] is exact and
   every event has a well-defined integer tick index [a]; the front
   edge is an integer tick index, never an accumulated float. The
   invariants that make the order exact:

   - front holds exactly the events with [a <= edge]; any such event is
     strictly earlier in time than any wheel/overflow event (equal
     times share [a], hence always share a bucket);
   - the edge never passes an unmigrated event: scans advance slot by
     slot through occupied territory and only jump across slots proven
     empty, cascading each level-1/2 slot when the edge enters it;
   - each slot holds a single tick-index value at a time (level ranges
     are narrower than a wrap), so migrating a whole slot is exact;
   - within the front list, Sched_event.before gives the (time, key,
     seq) total order. *)

(* 1 / tick, for a tick of 2^-23 s (~0.12 us). *)
let inv_tick = 0x1p23
let lw = 15
let w = 1 lsl lw
let wmask = w - 1
let w2 = w * w
let w3 = w * w * w

type t = {
  mutable edge : int; (* front edge as an absolute tick index *)
  mutable front : Sched_event.t; (* sorted intrusive list; events with a <= edge *)
  mutable front_tail : Sched_event.t; (* last cell; stale when front is nil *)
  slots0 : Sched_event.t array; (* intrusive lists; a - edge in [1, w) *)
  slots1 : Sched_event.t array; (* a - edge in [w, w2) *)
  slots2 : Sched_event.t array; (* a - edge in [w2, w3) *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  overflow : Event_heap.t; (* a - edge >= w3 *)
  mutable count : int;
}

(* Tick index of a time: floor (time / tick), exact for power-of-two
   ticks. Times too far in the future for integer range clamp to a
   far index; they sit in the overflow heap (which orders by time
   exactly) until the clamp is irrelevant. *)
let tick_of time =
  let q = time *. inv_tick in
  if q >= 4.0e18 then max_int / 2 else int_of_float q

let create () =
  {
    edge = 0;
    front = Sched_event.nil;
    front_tail = Sched_event.nil;
    slots0 = Array.make w Sched_event.nil;
    slots1 = Array.make w Sched_event.nil;
    slots2 = Array.make w Sched_event.nil;
    c0 = 0;
    c1 = 0;
    c2 = 0;
    overflow = Event_heap.create ();
    count = 0;
  }

let length t = t.count

(* Insertion point for [ev] in a sorted intrusive list after [prev].
   Top level with explicit arguments, not an inner closure: this is on
   the hot path and must not allocate. *)
let rec find_pos (prev : Sched_event.t) (ev : Sched_event.t) =
  let n = prev.Sched_event.next in
  if n != Sched_event.nil && Sched_event.before_bits n ev then find_pos n ev else prev

(* Sorted insert into the front list. Head and tail fast paths are
   O(1); the interior walk only runs for events landing strictly inside
   the list, which for a just-migrated slot is a handful of warm cells. *)
let front_add t (ev : Sched_event.t) =
  if t.front == Sched_event.nil then begin
    ev.Sched_event.next <- Sched_event.nil;
    t.front <- ev;
    t.front_tail <- ev
  end
  else if Sched_event.before_bits ev t.front then begin
    ev.Sched_event.next <- t.front;
    t.front <- ev
  end
  else if Sched_event.before_bits t.front_tail ev then begin
    ev.Sched_event.next <- Sched_event.nil;
    t.front_tail.Sched_event.next <- ev;
    t.front_tail <- ev
  end
  else begin
    let prev = find_pos t.front ev in
    ev.Sched_event.next <- prev.Sched_event.next;
    prev.Sched_event.next <- ev
  end

(* Bucket an event by its distance from the current edge, using the
   tick index cached in the cell by [add]. Shared by [add], cascades,
   and the overflow drain; does not touch [count]. Reading [ev.tick]
   instead of re-deriving it from the time matters on cascade walks:
   the cell is a cold cache line there, and the boxed time float would
   be a second one. *)
let place t (ev : Sched_event.t) =
  let a = ev.Sched_event.tick in
  if a <= t.edge then front_add t ev
  else begin
    let d = a - t.edge in
    if d < w then begin
      let idx = a land wmask in
      ev.next <- t.slots0.(idx);
      t.slots0.(idx) <- ev;
      t.c0 <- t.c0 + 1
    end
    else if d < w2 then begin
      let idx = (a asr lw) land wmask in
      ev.next <- t.slots1.(idx);
      t.slots1.(idx) <- ev;
      t.c1 <- t.c1 + 1
    end
    else if d < w3 then begin
      let idx = (a asr (2 * lw)) land wmask in
      ev.next <- t.slots2.(idx);
      t.slots2.(idx) <- ev;
      t.c2 <- t.c2 + 1
    end
    else Event_heap.add t.overflow ev
  end

let add t ev =
  ev.Sched_event.tick <- tick_of ev.Sched_event.time;
  Sched_event.cache_time_bits ev;
  place t ev;
  t.count <- t.count + 1

(* Top-level tail-recursive walks with explicit arguments rather than
   [ref] cursors or inner closures throughout the advance path: both
   would allocate once per tick, and the whole point of this structure
   is an allocation-free steady state. *)
let rec migrate0_go t (cell : Sched_event.t) =
  if cell != Sched_event.nil then begin
    let next = cell.Sched_event.next in
    t.c0 <- t.c0 - 1;
    front_add t cell;
    migrate0_go t next
  end

(* Move the level-0 slot for tick index [a] (= the slot the edge just
   reached) into the front list. *)
let migrate0 t a =
  let idx = a land wmask in
  let head = t.slots0.(idx) in
  t.slots0.(idx) <- Sched_event.nil;
  migrate0_go t head

(* Re-place every event of a level-1/2 slot now that the edge has
   entered its region; they land in lower levels (or the front list). *)
let rec cascade1_go t (cell : Sched_event.t) =
  if cell != Sched_event.nil then begin
    let next = cell.Sched_event.next in
    t.c1 <- t.c1 - 1;
    place t cell;
    cascade1_go t next
  end

let cascade1 t b =
  let idx = b land wmask in
  let head = t.slots1.(idx) in
  t.slots1.(idx) <- Sched_event.nil;
  cascade1_go t head

let rec cascade2_go t (cell : Sched_event.t) =
  if cell != Sched_event.nil then begin
    let next = cell.Sched_event.next in
    t.c2 <- t.c2 - 1;
    place t cell;
    cascade2_go t next
  end

let cascade2 t c =
  let idx = c land wmask in
  let head = t.slots2.(idx) in
  t.slots2.(idx) <- Sched_event.nil;
  cascade2_go t head

(* Pull overflow events that have come within the wheel horizon. *)
let rec drain_overflow t =
  if
    (not (Event_heap.is_empty t.overflow))
    && tick_of (Event_heap.peek_time t.overflow) - t.edge < w3
  then begin
    place t (Event_heap.pop t.overflow);
    drain_overflow t
  end

(* Advance the edge until the front list is populated (or no events
   remain). Each iteration either processes a region boundary (with its
   cascades), scans the current region's occupied level for the next
   nonempty slot, or jumps across a region proven empty. *)
(* First occupied slot of a level in [a, a_end], or -1. *)
let rec scan0 t a a_end =
  if a > a_end then -1
  else if t.slots0.(a land wmask) != Sched_event.nil then a
  else scan0 t (a + 1) a_end

let rec scan1 t b b_end =
  if b > b_end then -1
  else if t.slots1.(b land wmask) != Sched_event.nil then b
  else scan1 t (b + 1) b_end

let rec scan2 t c c_end =
  if c > c_end then -1
  else if t.slots2.(c land wmask) != Sched_event.nil then c
  else scan2 t (c + 1) c_end

let rec advance t =
  drain_overflow t;
  if t.front != Sched_event.nil || t.count = 0 then ()
  else begin
    (if t.c0 = 0 && t.c1 = 0 && t.c2 = 0 then
       (* Only far-future overflow remains: jump to just before its
          head; the next drain pulls it into the wheel. *)
       t.edge <- max t.edge (tick_of (Event_heap.peek_time t.overflow) - 1)
     else
       let next = t.edge + 1 in
       if next land (w2 - 1) = 0 then begin
         (* Entering a new level-2 region: cascade its slot, then the
            first level-1 slot of the region, then take the first tick. *)
         t.edge <- next;
         cascade2 t (next asr (2 * lw));
         cascade1 t (next asr lw);
         migrate0 t next
       end
       else if next land (w - 1) = 0 then begin
         t.edge <- next;
         cascade1 t (next asr lw);
         migrate0 t next
       end
       else if t.c0 > 0 then begin
         (* Scan level 0 up to the end of the current level-1 region. *)
         let region_end = (((next asr lw) + 1) * w) - 1 in
         let a = scan0 t next region_end in
         if a >= 0 then begin
           t.edge <- a;
           migrate0 t a
         end
         else t.edge <- region_end (* boundary cascade on the next pass *)
       end
       else if t.c1 > 0 then begin
         (* Level 0 empty: scan level 1 within the current level-2
            region and jump to just before the first occupied slot. *)
         let cur_b = t.edge asr lw in
         let c_end = (((t.edge asr (2 * lw)) + 1) * w) - 1 in
         let b = scan1 t (cur_b + 1) c_end in
         if b >= 0 then t.edge <- (b * w) - 1
         else t.edge <- (((t.edge asr (2 * lw)) + 1) * w2) - 1
       end
       else begin
         (* Only level 2 occupied: jump to just before its first
            occupied slot (level-2 indices span at most one wrap). *)
         let cur_c = t.edge asr (2 * lw) in
         let c = scan2 t (cur_c + 1) (cur_c + w) in
         if c >= 0 then t.edge <- (c * w2) - 1
         else t.edge <- (((cur_c + w) * w2) - 1) (* unreachable if counts are consistent *)
       end);
    advance t
  end

(* Fused peek-and-pop: [Sched_event.nil] when empty or when the minimum
   lies beyond [limit]. The engine's hot loop uses this instead of
   peek-then-pop, avoiding a per-dispatch call and float boxing. *)
let pop_until t limit =
  if t.count = 0 then Sched_event.nil
  else begin
    if t.front == Sched_event.nil then advance t;
    let head = t.front in
    (* The box behind [head.time] was allocated at schedule time — a
       cold line by now; rebuild the identical float from the cached
       bits in the warm cell line instead of dereferencing it. *)
    Sched_event.refresh_time head;
    if head.Sched_event.time > limit then Sched_event.nil
    else begin
      t.front <- head.Sched_event.next;
      head.Sched_event.next <- Sched_event.nil;
      t.count <- t.count - 1;
      head
    end
  end

let peek_time t =
  if t.count = 0 then infinity
  else begin
    if t.front == Sched_event.nil then advance t;
    Sched_event.refresh_time t.front;
    t.front.Sched_event.time
  end
