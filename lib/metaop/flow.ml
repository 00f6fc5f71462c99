module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode

type coord = Chip.coord

type location = Main_memory | Buffer | Mem_arrays of coord list

type slice = { lo : int; hi : int }

type instr =
  | Switch of { target : Mode.transition; arrays : coord list }
  | Write_weights of {
      label : string;
      node_id : int;
      arrays : coord list;
      slice : slice;
      bytes : int;
      in_place : bool;
    }
  | Load of { tensor : string; src : location; dst : location; bytes : int }
  | Store of { tensor : string; src : location; dst : location; bytes : int }
  | Compute of {
      label : string;
      node_id : int;
      arrays : coord list;
      mem_arrays : coord list;
      inputs : string list;
      output : string;
      slice : slice;
      macs : float;
      ai : float;
    }
  | Vector_op of { label : string; node_id : int; inputs : string list; output : string }
  | Parallel of instr list

type program = { source : string; instrs : instr list }

let rec switches_of = function
  | Switch { target; arrays } -> List.map (fun a -> (target, a)) arrays
  | Parallel is -> List.concat_map switches_of is
  | Write_weights _ | Load _ | Store _ | Compute _ | Vector_op _ -> []

let switched_arrays p = List.concat_map switches_of p.instrs
let count_switches p = List.length (switched_arrays p)

(* --- validation --- *)

let validate chip p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_coord (c : coord) =
    try
      ignore (Chip.index_of_coord chip c);
      Ok ()
    with Chip.Invalid_config m -> Error m
  in
  let check_coords cs =
    List.fold_left
      (fun acc c -> match acc with Error _ -> acc | Ok () -> check_coord c)
      (Ok ()) cs
  in
  let check_slice label (s : slice) =
    if s.lo < 0 || s.hi <= s.lo then err "%s: malformed slice [%d,%d)" label s.lo s.hi
    else Ok ()
  in
  let ( >>= ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let coords_of_loc = function Mem_arrays cs -> cs | Main_memory | Buffer -> [] in
  let rec check_instr ~in_parallel i =
    match i with
    | Switch { arrays; _ } -> check_coords arrays
    | Write_weights { arrays; slice; label; _ } ->
      check_coords arrays >>= fun () -> check_slice label slice
    | Load { src; dst; bytes; tensor } | Store { src; dst; bytes; tensor } ->
      check_coords (coords_of_loc src) >>= fun () ->
      check_coords (coords_of_loc dst) >>= fun () ->
      if bytes < 0 then err "%s: negative byte count" tensor else Ok ()
    | Compute { arrays; mem_arrays; slice; label; macs; ai; _ } ->
      check_coords arrays >>= fun () ->
      check_coords mem_arrays >>= fun () ->
      check_slice label slice >>= fun () ->
      if macs < 0. || ai < 0. then err "%s: negative macs/ai" label
      else begin
        (* an array cannot be compute and memory for the same operator *)
        let overlap = List.filter (fun c -> List.mem c mem_arrays) arrays in
        match overlap with
        | [] -> Ok ()
        | c :: _ -> err "%s: array (%d,%d) in both modes" label c.Chip.x c.Chip.y
      end
    | Parallel is ->
      if in_parallel then err "nested parallel block"
      else begin
        (* Eq. 5: within a segment an array is compute xor memory. *)
        let compute_set = Hashtbl.create 16 and memory_set = Hashtbl.create 16 in
        let record tbl cs = List.iter (fun c -> Hashtbl.replace tbl c ()) cs in
        List.iter
          (function
            | Compute { arrays; mem_arrays; _ } ->
              record compute_set arrays;
              record memory_set mem_arrays
            | Write_weights { arrays; _ } -> record compute_set arrays
            | Load { src; dst; _ } | Store { src; dst; _ } ->
              record memory_set (coords_of_loc src);
              record memory_set (coords_of_loc dst)
            | Switch _ | Vector_op _ | Parallel _ -> ())
          is;
        let clash =
          Hashtbl.fold
            (fun c () acc ->
              match acc with
              | Some _ -> acc
              | None -> if Hashtbl.mem memory_set c then Some c else None)
            compute_set None
        in
        match clash with
        | Some c ->
          err "parallel block: array (%d,%d) used in both modes" c.Chip.x c.Chip.y
        | None ->
          List.fold_left
            (fun acc i ->
              match acc with
              | Error _ -> acc
              | Ok () -> check_instr ~in_parallel:true i)
            (Ok ()) is
      end
    | Vector_op _ -> Ok ()
  in
  List.fold_left
    (fun acc i -> match acc with Error _ -> acc | Ok () -> check_instr ~in_parallel:false i)
    (Ok ()) p.instrs

(* --- printing (Fig. 13 concrete syntax) --- *)

let pp_coord ppf (c : coord) = Format.fprintf ppf "(%d,%d)" c.Chip.x c.Chip.y

let pp_coords ppf cs =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_coord)
    cs

let pp_loc ppf = function
  | Main_memory -> Format.fprintf ppf "main"
  | Buffer -> Format.fprintf ppf "buffer"
  | Mem_arrays cs -> Format.fprintf ppf "arrays%a" pp_coords cs

let pp_names ppf ns =
  Format.fprintf ppf "(%s)" (String.concat ", " ns)

let rec pp_instr ppf = function
  | Switch { target; arrays } ->
    Format.fprintf ppf "CM.switch(%s, %a)"
      (Cim_arch.Mode.transition_to_string target)
      pp_coords arrays
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Format.fprintf ppf
      "CIM.write(%S, node=%d, arrays=%a, slice=[%d,%d), bytes=%d, inplace=%d)"
      label node_id pp_coords arrays slice.lo slice.hi bytes
      (if in_place then 1 else 0)
  | Load { tensor; src; dst; bytes } ->
    Format.fprintf ppf "MEM.load(%s, %a -> %a, %d)" tensor pp_loc src pp_loc dst bytes
  | Store { tensor; src; dst; bytes } ->
    Format.fprintf ppf "MEM.store(%s, %a -> %a, %d)" tensor pp_loc src pp_loc dst bytes
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai } ->
    Format.fprintf ppf
      "CIM.compute(%S, node=%d, arrays=%a, mem=%a, in=%a, out=(%s), slice=[%d,%d), macs=%.17g, ai=%.17g)"
      label node_id pp_coords arrays pp_coords mem_arrays pp_names inputs output
      slice.lo slice.hi macs ai
  | Vector_op { label; node_id; inputs; output } ->
    Format.fprintf ppf "VEC.op(%S, node=%d, in=%a, out=(%s))" label node_id
      pp_names inputs output
  | Parallel is ->
    Format.fprintf ppf "@[<v 2>parallel {@,%a@]@,}"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_instr)
      is

let pp ppf p =
  Format.fprintf ppf "@[<v>flow %S@,%a@]@." p.source
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_instr)
    p.instrs

(* [to_string] is the program's identity: the cache compares the digest of
   a regenerated program against a stored one on every warm hit, so it is
   on the replay path and prints a whole layer (up to about 1 MB) each
   time. It prints into one byte sink per domain that lives as long as the
   domain and is reset on every call: [digest] hashes the sink in place,
   so a replay allocates neither the text nor any growth copy of it once
   the sink has reached the largest program's size. Ints go in digit by
   digit, a coordinate of a grid up to 32x32 is one blit from a table of
   preprinted [",(x,y)"], [%S] strings go through the escaper only when
   they need it, and the two [%.17g] floats of a compute go through the C
   formatter that [Printf] calls. The output is byte-identical to [pp] —
   same escapes, line breaks and two-space parallel-block indentation —
   and the metaop tests check that on random and compiled programs. The
   one exception is an empty program or parallel block, for which [pp]
   prints an indented blank line; codegen emits neither. *)

type sink = { mutable buf : Bytes.t; mutable len : int }

let sink_key = Domain.DLS.new_key (fun () -> { buf = Bytes.create 65536; len = 0 })

let grow s n =
  let b = Bytes.create (max (2 * Bytes.length s.buf) (s.len + n)) in
  Bytes.blit s.buf 0 b 0 s.len;
  s.buf <- b

let[@inline] reserve s n = if s.len + n > Bytes.length s.buf then grow s n

let add_char s c =
  reserve s 1;
  Bytes.unsafe_set s.buf s.len c;
  s.len <- s.len + 1

let add_sub s str off n =
  reserve s n;
  Bytes.unsafe_blit_string str off s.buf s.len n;
  s.len <- s.len + n

let add_string s str = add_sub s str 0 (String.length str)

let rec add_nat s n =
  if n >= 10 then add_nat s (n / 10);
  add_char s (Char.unsafe_chr (48 + (n mod 10)))

let add_int s n = if n >= 0 then add_nat s n else add_string s (string_of_int n)

(* the C primitive behind [Printf]'s [%.17g] *)
external format_float : string -> float -> string = "caml_format_float"

(* [%S] is [String.escaped] in quotes; [String.escaped] returns its
   argument itself, unallocated, when nothing needs escaping *)
let add_quoted s str =
  add_char s '"';
  add_string s (String.escaped str);
  add_char s '"'

let coord_side = 32

let coord_text =
  Array.init (coord_side * coord_side) (fun i ->
      Printf.sprintf ",(%d,%d)" (i mod coord_side) (i / coord_side))

(* a list's first coordinate is its table entry without the comma *)
let add_coord s ~first (c : coord) =
  let x = c.Chip.x and y = c.Chip.y in
  if x >= 0 && x < coord_side && y >= 0 && y < coord_side then begin
    let t = coord_text.((y * coord_side) + x) in
    let off = if first then 1 else 0 in
    add_sub s t off (String.length t - off)
  end
  else begin
    if not first then add_char s ',';
    add_char s '(';
    add_int s x;
    add_char s ',';
    add_int s y;
    add_char s ')'
  end

let rec add_coord_list s ~first = function
  | [] -> ()
  | c :: rest ->
    add_coord s ~first c;
    add_coord_list s ~first:false rest

let add_coords s cs =
  add_char s '[';
  add_coord_list s ~first:true cs;
  add_char s ']'

let add_loc s = function
  | Main_memory -> add_string s "main"
  | Buffer -> add_string s "buffer"
  | Mem_arrays cs ->
    add_string s "arrays";
    add_coords s cs

let add_names s ns =
  add_char s '(';
  List.iteri
    (fun i n ->
      if i > 0 then add_string s ", ";
      add_string s n)
    ns;
  add_char s ')'

let spaces = String.make 64 ' '

(* valid programs indent by at most 2; deeper nesting takes more chunks *)
let rec add_spaces s n =
  let k = min n (String.length spaces) in
  add_sub s spaces 0 k;
  if n > k then add_spaces s (n - k)

let add_slice s (sl : slice) =
  add_string s ", slice=[";
  add_int s sl.lo;
  add_char s ',';
  add_int s sl.hi;
  add_char s ')'

let add_head s op label node_id =
  add_string s op;
  add_quoted s label;
  add_string s ", node=";
  add_int s node_id

let add_move s op tensor src dst bytes =
  add_string s op;
  add_string s tensor;
  add_string s ", ";
  add_loc s src;
  add_string s " -> ";
  add_loc s dst;
  add_string s ", ";
  add_int s bytes;
  add_char s ')'

let rec add_instr s ~indent = function
  | Switch { target; arrays } ->
    add_string s "CM.switch(";
    add_string s (Cim_arch.Mode.transition_to_string target);
    add_string s ", ";
    add_coords s arrays;
    add_char s ')'
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    add_head s "CIM.write(" label node_id;
    add_string s ", arrays=";
    add_coords s arrays;
    add_slice s slice;
    add_string s ", bytes=";
    add_int s bytes;
    add_string s (if in_place then ", inplace=1)" else ", inplace=0)")
  | Load { tensor; src; dst; bytes } -> add_move s "MEM.load(" tensor src dst bytes
  | Store { tensor; src; dst; bytes } -> add_move s "MEM.store(" tensor src dst bytes
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai } ->
    add_head s "CIM.compute(" label node_id;
    add_string s ", arrays=";
    add_coords s arrays;
    add_string s ", mem=";
    add_coords s mem_arrays;
    add_string s ", in=";
    add_names s inputs;
    add_string s ", out=(";
    add_string s output;
    add_char s ')';
    add_slice s slice;
    add_string s ", macs=";
    add_string s (format_float "%.17g" macs);
    add_string s ", ai=";
    add_string s (format_float "%.17g" ai);
    add_char s ')'
  | Vector_op { label; node_id; inputs; output } ->
    add_head s "VEC.op(" label node_id;
    add_string s ", in=";
    add_names s inputs;
    add_string s ", out=(";
    add_string s output;
    add_string s "))"
  | Parallel is ->
    add_string s "parallel {";
    List.iter
      (fun i ->
        add_char s '\n';
        add_spaces s (indent + 2);
        add_instr s ~indent:(indent + 2) i)
      is;
    add_char s '\n';
    add_spaces s indent;
    add_char s '}'

(* the text of [p] in this domain's sink, valid until the next call *)
let print p =
  let s = Domain.DLS.get sink_key in
  s.len <- 0;
  add_string s "flow ";
  add_quoted s p.source;
  List.iter
    (fun i ->
      add_char s '\n';
      add_instr s ~indent:0 i)
    p.instrs;
  add_char s '\n';
  s

let to_string p =
  let s = print p in
  Bytes.sub_string s.buf 0 s.len

let digest p =
  let s = print p in
  Digest.to_hex (Digest.subbytes s.buf 0 s.len)
