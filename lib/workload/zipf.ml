(* Zipfian generator using the YCSB/Gray algorithm, plus the scrambled
   variant that decorrelates rank from key id. *)

open Leed_sim

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  rng : Rng.t;
}

let zeta n theta =
  let sum = ref 0. in
  for i = 1 to n do
    sum := !sum +. (1. /. (float_of_int i ** theta))
  done;
  !sum

(* ζ(n, θ) by (n, θ), computed once per process. Workload generators
   sample a 10 M-rank space, where the sum costs ~0.4 s of CPU, and a
   run builds several generators over the same space. The memo holds
   values of a pure function, computed by the same summation, so no
   simulation can observe whether an entry was hit. *)
(* simlint: allow toplevel-state — memo of a pure function *)
let zeta_memo : (int * float, float) Hashtbl.t = Hashtbl.create 4

let create ?(theta = 0.99) ~n rng =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta <= 0. || theta >= 1. then invalid_arg "Zipf.create: theta must be in (0,1)";
  let zetan =
    match Hashtbl.find_opt zeta_memo (n, theta) with
    | Some z -> z
    | None ->
        let z = zeta n theta in
        Hashtbl.replace zeta_memo (n, theta) z;
        z
  in
  let zeta2 = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta2 /. zetan)) in
  { n; theta; alpha; zetan; eta; rng }

(* Rank in [0, n): rank 0 is the hottest. *)
let next t =
  let u = Rng.float t.rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** t.theta) then 1
  else
    let v = float_of_int t.n *. ((t.eta *. u) -. t.eta +. 1.0) ** t.alpha in
    min (t.n - 1) (int_of_float v)

(* FNV-1a scramble so that hot ranks are spread over the key space — the
   standard YCSB "scrambled zipfian". *)
let fnv1a x =
  let prime = 0x100000001b3L and offset = 0xcbf29ce484222325L in
  let h = ref offset in
  for shift = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical (Int64.of_int x) (shift * 8)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) prime
  done;
  Int64.to_int (Int64.shift_right_logical !h 2)

let next_scrambled t = fnv1a (next t) mod t.n
