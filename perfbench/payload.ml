(* Read validation for YCSB payloads. [Workload.value_for] starts every
   value with the tag "v<id>:<version>;"; a read is correct when the tag
   names the key it was read from and a version the generator has
   issued for that key (0 is the preload). *)

let parse_int s ~pos ~stop =
  if pos >= stop then None
  else begin
    let rec go i acc =
      if i = stop then Some acc
      else
        match s.[i] with
        | '0' .. '9' when acc <= (max_int - 9) / 10 -> go (i + 1) ((acc * 10) + Char.code s.[i] - 48)
        | _ -> None
    in
    go pos 0
  end

let parse (v : bytes) =
  let s = Bytes.unsafe_to_string v in
  let n = String.length s in
  if n < 4 || s.[0] <> 'v' then None
  else
    match (String.index_from_opt s 1 ':', String.index_from_opt s 1 ';') with
    | Some colon, Some semi when colon < semi -> (
        match (parse_int s ~pos:1 ~stop:colon, parse_int s ~pos:(colon + 1) ~stop:semi) with
        | Some id, Some version -> Some (id, version)
        | _ -> None)
    | _ -> None

let check ~id ~max_version = function
  | None -> Error (Printf.sprintf "key %d read as absent" id)
  | Some v -> (
      match parse v with
      | None -> Error (Printf.sprintf "key %d: payload has no v<id>:<version>; tag" id)
      | Some (got, _) when got <> id -> Error (Printf.sprintf "key %d returned the value of key %d" id got)
      | Some (_, version) when version > max_version ->
          Error (Printf.sprintf "key %d: version %d was never written (latest %d)" id version max_version)
      | Some _ -> Ok ())
