(* Metric plumbing shared by every workload: name and unit rules, the
   percentile support rule, pooled latency samples, and the one-line JSON
   result the benchmark prints last. *)

let name_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  String.length s > 0
  && String.length s <= 16
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

(* --- latency samples --- *)

(* A growable float array: one value per completed operation. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let concat ss =
  let all = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add all s.data.(i) done) ss;
  all

let total s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array, reported only when at least
   ten samples lie strictly beyond it: a p99.9 needs 10,000 samples. *)
let min_beyond = 10

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    if n - rank < min_beyond then None else Some sorted.(rank - 1)
  end

let median = function
  | [] -> invalid_arg "Metric.median: no values"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- the result line --- *)

type value = { name : string; value : float; unit_ : string }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

(* Every emitted value must be declared (same name, same unit) and
   finite; a benchmark that prints anything else is broken, so the run
   fails instead of printing a result. *)
let check_declared ~declared values =
  List.iter
    (fun v ->
      if not (Float.is_finite v.value) then
        failwith (Printf.sprintf "metric %s is not finite" v.name);
      match List.assoc_opt v.name declared with
      | Some u when u = v.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" v.name v.unit_ u)
      | None -> failwith (Printf.sprintf "metric %s is not declared" v.name))
    values;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun v -> v.name = name) values) then
        failwith (Printf.sprintf "declared metric %s was not measured" name))
    declared

let result_line ~correct ~attempted ~failed values =
  let metric v =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" v.name (json_number v.value) v.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric values))
