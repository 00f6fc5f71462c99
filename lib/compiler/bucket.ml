(* Length-bucketing policy: maps a context length to the bucket ceiling it
   compiles at. The canonical form is embedded as one field of
   Cmswitch.Config.canonical, so it must stay free of ';', '{' and '}'. *)

type t =
  | Pow2 of { min_ceiling : int; max_ceiling : int }
  | Explicit of int list (* non-empty, strictly increasing, all positive *)

let pow2 ?(min_ceiling = 32) ?(max_ceiling = 2048) () =
  if min_ceiling < 1 then invalid_arg "Bucket.pow2: min_ceiling < 1";
  if max_ceiling < min_ceiling then invalid_arg "Bucket.pow2: max_ceiling < min_ceiling";
  Pow2 { min_ceiling; max_ceiling }

let explicit bs =
  let bs = List.sort_uniq compare bs in
  if bs = [] then invalid_arg "Bucket.explicit: empty boundary list";
  if List.exists (fun b -> b < 1) bs then
    invalid_arg "Bucket.explicit: non-positive boundary";
  Explicit bs

let default = pow2 ()

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let ceiling t len =
  if len < 1 then invalid_arg "Bucket.ceiling: len < 1";
  match t with
  | Pow2 { min_ceiling; max_ceiling } ->
      if len <= min_ceiling then min_ceiling
      else if len > max_ceiling then len
      else
        (* the largest boundary is the biggest power of two <= max_ceiling;
           lengths above it (possible when max_ceiling is not a power of
           two) compile exactly, same as lengths above max_ceiling *)
        let p = next_pow2 len in
        if p > max_ceiling then len else p
  | Explicit bs -> (
      match List.find_opt (fun b -> b >= len) bs with
      | Some b -> b
      | None -> len)

let boundaries = function
  | Explicit bs -> bs
  | Pow2 { min_ceiling; max_ceiling } ->
      let rec above p acc =
        if p > max_ceiling then List.rev acc
        else above (p * 2) (p :: acc)
      in
      min_ceiling :: above (next_pow2 (min_ceiling + 1)) []

let equal a b =
  match (a, b) with
  | Pow2 x, Pow2 y -> x.min_ceiling = y.min_ceiling && x.max_ceiling = y.max_ceiling
  | Explicit x, Explicit y -> x = y
  | _ -> false

let canonical = function
  | Pow2 { min_ceiling; max_ceiling } ->
      Printf.sprintf "buckets.v1(pow2:%d:%d)" min_ceiling max_ceiling
  | Explicit bs ->
      Printf.sprintf "buckets.v1(list:%s)"
        (String.concat "," (List.map string_of_int bs))

let of_canonical s =
  let fail () = Error (Printf.sprintf "Bucket.of_canonical: cannot parse %S" s) in
  let prefix = "buckets.v1(" in
  if not (String.length s > String.length prefix + 1
          && String.sub s 0 (String.length prefix) = prefix
          && s.[String.length s - 1] = ')')
  then fail ()
  else
    let body =
      String.sub s (String.length prefix)
        (String.length s - String.length prefix - 1)
    in
    match String.split_on_char ':' body with
    | [ "pow2"; mn; mx ] -> (
        match (int_of_string_opt mn, int_of_string_opt mx) with
        | Some mn, Some mx when 1 <= mn && mn <= mx ->
            Ok (Pow2 { min_ceiling = mn; max_ceiling = mx })
        | _ -> fail ())
    | [ "list"; bs ] -> (
        let parts = String.split_on_char ',' bs in
        let ints = List.filter_map int_of_string_opt parts in
        if List.length ints <> List.length parts || ints = [] then fail ()
        else
          match explicit ints with
          | t ->
              (* canonical lists are already sorted/deduped; reject otherwise
                 so canonical/of_canonical is a strict bijection *)
              if canonical t = s then Ok t else fail ()
          | exception Invalid_argument _ -> fail ())
    | _ -> fail ()

let of_string s =
  let s = String.trim s in
  let fail () =
    Error
      (Printf.sprintf
         "cannot parse bucket policy %S (want pow2[:MIN[:MAX]] or a comma \
          list like 32,64,128)"
         s)
  in
  (* the constructors validate; their rejection is a parse error *)
  let make f =
    match f () with t -> Ok t | exception Invalid_argument _ -> fail ()
  in
  if String.length s > 10 && String.sub s 0 10 = "buckets.v1" then of_canonical s
  else
    match String.split_on_char ':' s with
    | [ "pow2" ] -> Ok (pow2 ())
    | [ "pow2"; mn ] -> (
        match int_of_string_opt mn with
        | Some mn -> make (fun () -> pow2 ~min_ceiling:mn ())
        | None -> fail ())
    | [ "pow2"; mn; mx ] -> (
        match (int_of_string_opt mn, int_of_string_opt mx) with
        | Some mn, Some mx ->
            make (fun () -> pow2 ~min_ceiling:mn ~max_ceiling:mx ())
        | _ -> fail ())
    | [ _ ] -> (
        let parts = String.split_on_char ',' s in
        let ints = List.filter_map int_of_string_opt parts in
        if List.length ints <> List.length parts then fail ()
        else make (fun () -> explicit ints))
    | _ -> fail ()

let to_string = function
  | Pow2 { min_ceiling; max_ceiling } ->
      Printf.sprintf "pow2:%d:%d" min_ceiling max_ceiling
  | Explicit bs -> String.concat "," (List.map string_of_int bs)
