(* Binary min-heap of timestamped events: the timing wheel's overflow
   store, and the reference order the wheel is tested against.

   Ordering is Sched_event.before: (time, key, seq). Under the default
   FIFO tie-break policy every key is 0, so equal-time events fire in
   insertion order; the race detector assigns seeded pseudo-random keys
   instead, exploring a different — but still fully deterministic —
   legal ordering of simultaneous events (see Sim.tiebreak).

   The API is allocation-free: [pop] returns [Sched_event.nil] (tested
   with [==]) instead of an option, and [peek_time] returns [infinity]
   when empty. *)

type t = { mutable arr : Sched_event.t array; mutable len : int }

let create () = { arr = Array.make 64 Sched_event.nil; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let before = Sched_event.before

let grow h =
  let arr = Array.make (2 * Array.length h.arr) Sched_event.nil in
  Array.blit h.arr 0 arr 0 h.len;
  h.arr <- arr

(* The sift loops are top-level functions with explicit arguments, not
   inner closures: a closure capturing [h] would allocate on every
   add/pop. *)
let rec sift_up h ev i =
  if i = 0 then h.arr.(0) <- ev
  else
    let p = (i - 1) / 2 in
    if before ev h.arr.(p) then begin
      h.arr.(i) <- h.arr.(p);
      sift_up h ev p
    end
    else h.arr.(i) <- ev

let add h ev =
  if h.len = Array.length h.arr then grow h;
  let i = h.len in
  h.len <- h.len + 1;
  sift_up h ev i

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.len && before h.arr.(l) h.arr.(i) then l else i in
  let m = if r < h.len && before h.arr.(r) h.arr.(m) then r else m in
  if m <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(m);
    h.arr.(m) <- tmp;
    sift_down h m
  end

let pop h =
  if h.len = 0 then Sched_event.nil
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    let last = h.arr.(h.len) in
    h.arr.(h.len) <- Sched_event.nil;
    if h.len > 0 then begin
      h.arr.(0) <- last;
      sift_down h 0
    end;
    top
  end

let peek_time h = if h.len = 0 then infinity else h.arr.(0).Sched_event.time

