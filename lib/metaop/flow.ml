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
   on the replay path and prints a whole layer (hundreds of KB) each time.
   It is a direct [Buffer] printer that builds no intermediate strings:
   ints go in digit by digit, [%S] strings go through the escaper only when
   they need it, and only the two [%.17g] floats of a compute go through
   [Printf]. The output is byte-identical to [pp] — same escapes, line
   breaks and two-space parallel-block indentation — and the metaop tests
   check that on random and compiled programs. The one exception is an
   empty program or parallel block, for which [pp] prints an indented
   blank line; codegen emits neither. *)

let rec buf_nat b n =
  if n >= 10 then buf_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let buf_int b n = if n >= 0 then buf_nat b n else Buffer.add_string b (string_of_int n)

(* [%S] is [String.escaped] in quotes; [String.escaped] returns its
   argument itself, unallocated, when nothing needs escaping *)
let buf_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let buf_coords b cs =
  Buffer.add_char b '[';
  List.iteri
    (fun i (c : coord) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '(';
      buf_int b c.Chip.x;
      Buffer.add_char b ',';
      buf_int b c.Chip.y;
      Buffer.add_char b ')')
    cs;
  Buffer.add_char b ']'

let buf_loc b = function
  | Main_memory -> Buffer.add_string b "main"
  | Buffer -> Buffer.add_string b "buffer"
  | Mem_arrays cs ->
    Buffer.add_string b "arrays";
    buf_coords b cs

let buf_names b ns =
  Buffer.add_char b '(';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b n)
    ns;
  Buffer.add_char b ')'

let spaces = String.make 64 ' '

(* valid programs indent by at most 2; deeper nesting takes more chunks *)
let rec buf_spaces b n =
  let k = min n (String.length spaces) in
  Buffer.add_substring b spaces 0 k;
  if n > k then buf_spaces b (n - k)

let buf_slice b (s : slice) =
  Buffer.add_string b ", slice=[";
  buf_int b s.lo;
  Buffer.add_char b ',';
  buf_int b s.hi;
  Buffer.add_char b ')'

let buf_head b op label node_id =
  Buffer.add_string b op;
  buf_quoted b label;
  Buffer.add_string b ", node=";
  buf_int b node_id

let buf_move b op tensor src dst bytes =
  Buffer.add_string b op;
  Buffer.add_string b tensor;
  Buffer.add_string b ", ";
  buf_loc b src;
  Buffer.add_string b " -> ";
  buf_loc b dst;
  Buffer.add_string b ", ";
  buf_int b bytes;
  Buffer.add_char b ')'

let rec buf_instr b ~indent = function
  | Switch { target; arrays } ->
    Buffer.add_string b "CM.switch(";
    Buffer.add_string b (Cim_arch.Mode.transition_to_string target);
    Buffer.add_string b ", ";
    buf_coords b arrays;
    Buffer.add_char b ')'
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    buf_head b "CIM.write(" label node_id;
    Buffer.add_string b ", arrays=";
    buf_coords b arrays;
    buf_slice b slice;
    Buffer.add_string b ", bytes=";
    buf_int b bytes;
    Buffer.add_string b (if in_place then ", inplace=1)" else ", inplace=0)")
  | Load { tensor; src; dst; bytes } -> buf_move b "MEM.load(" tensor src dst bytes
  | Store { tensor; src; dst; bytes } -> buf_move b "MEM.store(" tensor src dst bytes
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai } ->
    buf_head b "CIM.compute(" label node_id;
    Buffer.add_string b ", arrays=";
    buf_coords b arrays;
    Buffer.add_string b ", mem=";
    buf_coords b mem_arrays;
    Buffer.add_string b ", in=";
    buf_names b inputs;
    Buffer.add_string b ", out=(";
    Buffer.add_string b output;
    Buffer.add_char b ')';
    buf_slice b slice;
    Printf.bprintf b ", macs=%.17g, ai=%.17g)" macs ai
  | Vector_op { label; node_id; inputs; output } ->
    buf_head b "VEC.op(" label node_id;
    Buffer.add_string b ", in=";
    buf_names b inputs;
    Buffer.add_string b ", out=(";
    Buffer.add_string b output;
    Buffer.add_string b "))"
  | Parallel is ->
    Buffer.add_string b "parallel {";
    List.iter
      (fun i ->
        Buffer.add_char b '\n';
        buf_spaces b (indent + 2);
        buf_instr b ~indent:(indent + 2) i)
      is;
    Buffer.add_char b '\n';
    buf_spaces b indent;
    Buffer.add_char b '}'

let to_string p =
  let b = Buffer.create 65536 in
  Buffer.add_string b "flow ";
  buf_quoted b p.source;
  List.iter
    (fun i ->
      Buffer.add_char b '\n';
      buf_instr b ~indent:0 i)
    p.instrs;
  Buffer.add_char b '\n';
  Buffer.contents b

let digest p = Digest.to_hex (Digest.string (to_string p))
