(* Log-scale latency histogram (HdrHistogram-style, fixed relative error).

   Values are bucketed geometrically with ratio [gamma]; percentile queries
   return the upper edge of the containing bucket, so the reported quantile
   overestimates by at most (gamma - 1).

   Quantile queries are O(1) amortised: each distinct [q] queried keeps
   a rank cursor (a bucket index plus the cumulative count through that
   bucket). [record] keeps every cursor's cumulative count exact, and a
   query only walks its cursor the few buckets the rank moved since the
   last query — the answer is the same bucket the linear scan from
   bucket 0 would stop at. The client's hedge and timeout logic asks the
   same two quantiles of every destination histogram on every GET, so
   this is a hot path. *)

(* Invariant: [cum] = sum of [counts.(0..idx)]; [idx = -1] means before
   bucket 0, with [cum = 0]. *)
type cursor = { q : float; mutable idx : int; mutable cum : int }

(* A histogram queried at more distinct quantiles than this drops its
   cursors and starts over: each cursor costs one compare-and-add per
   [record], so a report that sweeps many quantiles once must not tax
   every later record. *)
let max_cursors = 4

type t = {
  gamma : float;
  log_gamma : float;
  floor : float; (* values below [floor] land in bucket 0 *)
  mutable counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable cursors : cursor list;
}

let create ?(precision = 0.01) ?(floor = 1e-9) () =
  if precision <= 0. then invalid_arg "Histogram.create: precision must be > 0";
  let gamma = 1. +. precision in
  {
    gamma;
    log_gamma = log gamma;
    floor;
    counts = Array.make 1024 0;
    total = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
    cursors = [];
  }

let bucket_of t v =
  if v <= t.floor then 0 else 1 + int_of_float (log (v /. t.floor) /. t.log_gamma)

(* Upper edge of bucket [i]: floor * gamma^i. *)
let value_of t i = if i = 0 then t.floor else t.floor *. (t.gamma ** float_of_int i)

let rec bump_cursors b count = function
  | [] -> ()
  | c :: rest ->
      if c.idx >= b then c.cum <- c.cum + count;
      bump_cursors b count rest

let record ?(count = 1) t v =
  if v < 0. then invalid_arg "Histogram.record: negative value";
  if count < 0 then invalid_arg "Histogram.record: negative count";
  let b = bucket_of t v in
  if b >= Array.length t.counts then begin
    let counts = Array.make (max (b + 1) (2 * Array.length t.counts)) 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end;
  t.counts.(b) <- t.counts.(b) + count;
  t.total <- t.total + count;
  bump_cursors b count t.cursors;
  t.sum <- t.sum +. (v *. float_of_int count);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0. else t.min_v
let max_value t = if t.total = 0 then 0. else t.max_v

let rec cursor_for t q = function
  | c :: rest -> if c.q = q then c else cursor_for t q rest
  | [] ->
      let c = { q; idx = -1; cum = 0 } in
      t.cursors <- (if List.length t.cursors >= max_cursors then [ c ] else c :: t.cursors);
      c

(* q in [0,1]; q=0.5 is the median. The first bucket whose cumulative
   count reaches rank [max 1 (ceil (q * total))], reported as its upper
   edge clamped to the largest recorded value. *)
let percentile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.percentile: q outside [0,1]";
  if t.total = 0 then 0.
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.total)) in
    let rank = max rank 1 in
    let c = cursor_for t q t.cursors in
    let counts = t.counts in
    let last = Array.length counts - 1 in
    while c.cum < rank && c.idx < last do
      c.idx <- c.idx + 1;
      c.cum <- c.cum + counts.(c.idx)
    done;
    while c.idx >= 0 && c.cum - counts.(c.idx) >= rank do
      c.cum <- c.cum - counts.(c.idx);
      c.idx <- c.idx - 1
    done;
    if c.cum >= rank then min (value_of t c.idx) t.max_v else t.max_v
  end

let median t = percentile t 0.5
let p99 t = percentile t 0.99
let p999 t = percentile t 0.999

let merge ~into src =
  (* Requires identical bucketing. *)
  if into.gamma <> src.gamma || into.floor <> src.floor then
    invalid_arg "Histogram.merge: incompatible configurations";
  into.cursors <- [];
  if Array.length src.counts > Array.length into.counts then begin
    let counts = Array.make (Array.length src.counts) 0 in
    Array.blit into.counts 0 counts 0 (Array.length into.counts);
    into.counts <- counts
  end;
  Array.iteri (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total;
  into.sum <- into.sum +. src.sum;
  if src.total > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let reset t =
  t.cursors <- [];
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0.;
  t.min_v <- infinity;
  t.max_v <- neg_infinity
