module Mode = Cim_arch.Mode

type coord = Cim_arch.Chip.coord

type cmd =
  | Switch of { target : Mode.transition; arrays : coord list }
  | Write_weights of {
      label : string;
      node_id : int;
      arrays : coord list;
      slice : Flow.slice;
      bytes : int;
      in_place : bool;
    }
  | Dma_load of { tensor : string; src : Flow.location; dst : Flow.location; bytes : int }
  | Dma_store of { tensor : string; src : Flow.location; dst : Flow.location; bytes : int }
  | Compute of {
      label : string;
      node_id : int;
      arrays : coord list;
      mem_arrays : coord list;
      inputs : string list;
      output : string;
      slice : Flow.slice;
      macs : float;
      ai : float;
    }
  | Vec of { label : string; node_id : int; inputs : string list; output : string }
  | Par_begin of int
  | Par_end

type image = { source : string; cmds : cmd array }

let op_switch = 1
let op_write = 2
let op_dma_load = 3
let op_dma_store = 4
let op_compute = 5
let op_vec = 6
let op_par_begin = 7
let op_par_end = 8

(* ---- flow <-> command stream -------------------------------------------- *)

let rec cmds_of_instr acc (i : Flow.instr) =
  match i with
  | Flow.Switch { target; arrays } -> Switch { target; arrays } :: acc
  | Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Write_weights { label; node_id; arrays; slice; bytes; in_place } :: acc
  | Flow.Load { tensor; src; dst; bytes } ->
    Dma_load { tensor; src; dst; bytes } :: acc
  | Flow.Store { tensor; src; dst; bytes } ->
    Dma_store { tensor; src; dst; bytes } :: acc
  | Flow.Compute
      { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai } ->
    Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
    :: acc
  | Flow.Vector_op { label; node_id; inputs; output } ->
    Vec { label; node_id; inputs; output } :: acc
  | Flow.Parallel body ->
    if
      List.exists
        (function Flow.Parallel _ -> true | _ -> false)
        body
    then invalid_arg "Isa.of_flow: nested Parallel block";
    let inner = List.fold_left cmds_of_instr [] body in
    Par_end :: (inner @ (Par_begin (List.length body) :: acc))

let of_flow (p : Flow.program) =
  let rev = List.fold_left cmds_of_instr [] p.Flow.instrs in
  { source = p.Flow.source; cmds = Array.of_list (List.rev rev) }

let instr_of_cmd = function
  | Switch { target; arrays } -> Flow.Switch { target; arrays }
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place }
  | Dma_load { tensor; src; dst; bytes } -> Flow.Load { tensor; src; dst; bytes }
  | Dma_store { tensor; src; dst; bytes } -> Flow.Store { tensor; src; dst; bytes }
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
    ->
    Flow.Compute
      { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
  | Vec { label; node_id; inputs; output } ->
    Flow.Vector_op { label; node_id; inputs; output }
  | Par_begin _ | Par_end -> invalid_arg "Isa.to_flow: stray bracket marker"

let to_flow (img : image) =
  let n = Array.length img.cmds in
  let rec walk i acc =
    if i >= n then (List.rev acc, i)
    else
      match img.cmds.(i) with
      | Par_end -> (List.rev acc, i)
      | Par_begin expect ->
        let body, j = walk (i + 1) [] in
        if j >= n || img.cmds.(j) <> Par_end then
          invalid_arg "Isa.to_flow: PAR_BEGIN without matching PAR_END";
        if List.length body <> expect then
          invalid_arg
            (Printf.sprintf
               "Isa.to_flow: PAR_BEGIN announces %d commands, block has %d"
               expect (List.length body));
        walk (j + 1) (Flow.Parallel body :: acc)
      | c -> walk (i + 1) (instr_of_cmd c :: acc)
  in
  let instrs, stopped = walk 0 [] in
  if stopped <> n then invalid_arg "Isa.to_flow: PAR_END without PAR_BEGIN";
  { Flow.source = img.source; instrs }

(* ---- encoder ------------------------------------------------------------- *)

let pack_coord (c : coord) =
  if c.Cim_arch.Chip.x < 0 || c.Cim_arch.Chip.x > 0xffff
     || c.Cim_arch.Chip.y < 0 || c.Cim_arch.Chip.y > 0xffff
  then
    invalid_arg
      (Printf.sprintf "Isa.encode: coord (%d,%d) outside 16-bit range"
         c.Cim_arch.Chip.x c.Cim_arch.Chip.y);
  (c.Cim_arch.Chip.x lsl 16) lor c.Cim_arch.Chip.y

let unpack_coord w =
  { Cim_arch.Chip.x = (w lsr 16) land 0xffff; y = w land 0xffff }

(* signed 32-bit two's complement in one word *)
let pack_i32 v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then
    invalid_arg (Printf.sprintf "Isa.encode: %d outside signed 32-bit range" v);
  v land 0xffff_ffff

let unpack_i32 w = if w land 0x8000_0000 <> 0 then w - 0x1_0000_0000 else w

let u32_max = 0xffff_ffff

module Enc = struct
  type t = {
    buf : Buffer.t;                      (* command words, u32 LE *)
    strings : (string, int) Hashtbl.t;   (* string -> table index *)
    mutable table : string list;         (* reversed table *)
    mutable n_strings : int;
    mutable n_words : int;
  }

  let create () =
    { buf = Buffer.create 4096; strings = Hashtbl.create 64; table = [];
      n_strings = 0; n_words = 0 }

  let word e w =
    if w < 0 || w > u32_max then
      invalid_arg (Printf.sprintf "Isa.encode: word %d outside u32 range" w);
    Buffer.add_int32_le e.buf (Int32.of_int w);
    e.n_words <- e.n_words + 1

  let sidx e s =
    match Hashtbl.find_opt e.strings s with
    | Some i -> word e i
    | None ->
      let i = e.n_strings in
      Hashtbl.add e.strings s i;
      e.table <- s :: e.table;
      e.n_strings <- i + 1;
      word e i

  (* a byte count as an i64, high word first *)
  let byte_count e v =
    if v < 0 then invalid_arg (Printf.sprintf "Isa.encode: negative byte count %d" v);
    word e (v lsr 32);
    word e (v land 0xffff_ffff)

  let f64 e v =
    let bits = Int64.bits_of_float v in
    word e (Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xffff_ffffL));
    word e (Int64.to_int (Int64.logand bits 0xffff_ffffL))

  let coords e cs =
    word e (List.length cs);
    List.iter (fun c -> word e (pack_coord c)) cs

  let location e = function
    | Flow.Main_memory -> word e 0
    | Flow.Buffer -> word e 1
    | Flow.Mem_arrays cs ->
      word e 2;
      coords e cs
end

let encode_cmd e = function
  | Switch { target; arrays } ->
    Enc.word e op_switch;
    Enc.word e (match target with Mode.To_memory -> 0 | Mode.To_compute -> 1);
    Enc.coords e arrays
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Enc.word e op_write;
    Enc.sidx e label;
    Enc.word e (pack_i32 node_id);
    Enc.coords e arrays;
    Enc.word e (pack_i32 slice.Flow.lo);
    Enc.word e (pack_i32 slice.Flow.hi);
    Enc.byte_count e bytes;
    Enc.word e (if in_place then 1 else 0)
  | Dma_load { tensor; src; dst; bytes } ->
    Enc.word e op_dma_load;
    Enc.sidx e tensor;
    Enc.location e src;
    Enc.location e dst;
    Enc.byte_count e bytes
  | Dma_store { tensor; src; dst; bytes } ->
    Enc.word e op_dma_store;
    Enc.sidx e tensor;
    Enc.location e src;
    Enc.location e dst;
    Enc.byte_count e bytes
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
    ->
    Enc.word e op_compute;
    Enc.sidx e label;
    Enc.word e (pack_i32 node_id);
    Enc.coords e arrays;
    Enc.coords e mem_arrays;
    Enc.word e (List.length inputs);
    List.iter (Enc.sidx e) inputs;
    Enc.sidx e output;
    Enc.word e (pack_i32 slice.Flow.lo);
    Enc.word e (pack_i32 slice.Flow.hi);
    Enc.f64 e macs;
    Enc.f64 e ai
  | Vec { label; node_id; inputs; output } ->
    Enc.word e op_vec;
    Enc.sidx e label;
    Enc.word e (pack_i32 node_id);
    Enc.word e (List.length inputs);
    List.iter (Enc.sidx e) inputs;
    Enc.sidx e output
  | Par_begin n ->
    Enc.word e op_par_begin;
    Enc.word e n
  | Par_end -> Enc.word e op_par_end

let magic = "CMSI"
let version = 1

let encode (img : image) =
  let e = Enc.create () in
  Array.iter (encode_cmd e) img.cmds;
  let out = Buffer.create (Buffer.length e.Enc.buf + 256) in
  Buffer.add_string out magic;
  Buffer.add_int32_le out (Int32.of_int version);
  Buffer.add_int32_le out (Int32.of_int (String.length img.source));
  Buffer.add_string out img.source;
  Buffer.add_int32_le out (Int32.of_int e.Enc.n_strings);
  List.iter
    (fun s ->
      Buffer.add_int32_le out (Int32.of_int (String.length s));
      Buffer.add_string out s)
    (List.rev e.Enc.table);
  Buffer.add_int32_le out (Int32.of_int e.Enc.n_words);
  Buffer.add_buffer out e.Enc.buf;
  Buffer.contents out

(* ---- decoder ------------------------------------------------------------- *)

exception Bad of string

module Dec = struct
  type t = { s : string; mutable pos : int }

  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let u32 d =
    if d.pos + 4 > String.length d.s then fail "truncated at byte %d" d.pos;
    let v = Int32.to_int (String.get_int32_le d.s d.pos) in
    d.pos <- d.pos + 4;
    v land 0xffff_ffff

  let bytes d n =
    if n < 0 || d.pos + n > String.length d.s then
      fail "truncated string at byte %d" d.pos;
    let v = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    v

  (* an i64 byte count: negative, or past [max_int], when either of the
     high word's top two bits is set *)
  let byte_count d =
    let hi = u32 d in
    let lo = u32 d in
    if hi land 0xc000_0000 <> 0 then
      fail "byte count at byte %d is negative or past max_int" (d.pos - 8);
    (hi lsl 32) lor lo

  let f64 d =
    let hi = u32 d in
    let lo = u32 d in
    Int64.float_of_bits
      (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
end

let decode_image s =
  let d = { Dec.s; pos = 0 } in
  if String.length s < 4 || String.sub s 0 4 <> magic then
    Dec.fail "bad magic (want %S)" magic;
  d.Dec.pos <- 4;
  let v = Dec.u32 d in
  if v <> version then Dec.fail "unsupported version %d (want %d)" v version;
  let source = Dec.bytes d (Dec.u32 d) in
  let n_strings = Dec.u32 d in
  if n_strings > String.length s then Dec.fail "absurd string count %d" n_strings;
  let table = Array.init n_strings (fun _ -> Dec.bytes d (Dec.u32 d)) in
  let str i =
    if i < 0 || i >= n_strings then Dec.fail "string index %d out of range" i;
    table.(i)
  in
  let n_words = Dec.u32 d in
  let words_end = d.Dec.pos + (4 * n_words) in
  if words_end <> String.length s then
    Dec.fail "command stream length mismatch (%d words declared)" n_words;
  let coords () =
    let n = Dec.u32 d in
    if n > n_words then Dec.fail "absurd coord count %d" n;
    List.init n (fun _ -> unpack_coord (Dec.u32 d))
  in
  let location () =
    match Dec.u32 d with
    | 0 -> Flow.Main_memory
    | 1 -> Flow.Buffer
    | 2 -> Flow.Mem_arrays (coords ())
    | t -> Dec.fail "unknown location tag %d" t
  in
  let slice () =
    let lo = unpack_i32 (Dec.u32 d) in
    let hi = unpack_i32 (Dec.u32 d) in
    { Flow.lo; hi }
  in
  let strings () =
    let n = Dec.u32 d in
    if n > n_words then Dec.fail "absurd string-list count %d" n;
    List.init n (fun _ -> str (Dec.u32 d))
  in
  let cmds = ref [] in
  while d.Dec.pos < words_end do
    let c =
      match Dec.u32 d with
      | op when op = op_switch ->
        let target =
          match Dec.u32 d with
          | 0 -> Mode.To_memory
          | 1 -> Mode.To_compute
          | t -> Dec.fail "unknown switch target %d" t
        in
        Switch { target; arrays = coords () }
      | op when op = op_write ->
        let label = str (Dec.u32 d) in
        let node_id = unpack_i32 (Dec.u32 d) in
        let arrays = coords () in
        let slice = slice () in
        let bytes = Dec.byte_count d in
        let in_place =
          match Dec.u32 d with
          | 0 -> false
          | 1 -> true
          | t -> Dec.fail "bad in-place flag %d" t
        in
        Write_weights { label; node_id; arrays; slice; bytes; in_place }
      | op when op = op_dma_load ->
        let tensor = str (Dec.u32 d) in
        let src = location () in
        let dst = location () in
        Dma_load { tensor; src; dst; bytes = Dec.byte_count d }
      | op when op = op_dma_store ->
        let tensor = str (Dec.u32 d) in
        let src = location () in
        let dst = location () in
        Dma_store { tensor; src; dst; bytes = Dec.byte_count d }
      | op when op = op_compute ->
        let label = str (Dec.u32 d) in
        let node_id = unpack_i32 (Dec.u32 d) in
        let arrays = coords () in
        let mem_arrays = coords () in
        let inputs = strings () in
        let output = str (Dec.u32 d) in
        let slice = slice () in
        let macs = Dec.f64 d in
        let ai = Dec.f64 d in
        Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
      | op when op = op_vec ->
        let label = str (Dec.u32 d) in
        let node_id = unpack_i32 (Dec.u32 d) in
        let inputs = strings () in
        Vec { label; node_id; inputs; output = str (Dec.u32 d) }
      | op when op = op_par_begin -> Par_begin (Dec.u32 d)
      | op when op = op_par_end -> Par_end
      | op -> Dec.fail "unknown opcode %d at byte %d" op (d.Dec.pos - 4)
    in
    if d.Dec.pos > words_end then Dec.fail "command overruns declared stream";
    cmds := c :: !cmds
  done;
  { source; cmds = Array.of_list (List.rev !cmds) }

let decode s =
  match decode_image s with
  | img -> Ok img
  | exception Bad m -> Error m

(* ---- disassembler -------------------------------------------------------- *)

let words_of_cmd c =
  (* mirror of the encoder, counting only *)
  let loc_words = function
    | Flow.Main_memory | Flow.Buffer -> 1
    | Flow.Mem_arrays cs -> 2 + List.length cs
  in
  match c with
  | Switch { arrays; _ } -> 3 + List.length arrays
  | Write_weights { arrays; _ } -> 9 + List.length arrays
  | Dma_load { src; dst; _ } | Dma_store { src; dst; _ } ->
    4 + loc_words src + loc_words dst
  | Compute { arrays; mem_arrays; inputs; _ } ->
    13 + List.length arrays + List.length mem_arrays + List.length inputs
  | Vec { inputs; _ } -> 5 + List.length inputs
  | Par_begin _ -> 2
  | Par_end -> 1

let word_count img = Array.fold_left (fun n c -> n + words_of_cmd c) 0 img.cmds
let cmd_count img = Array.length img.cmds

let coords_str cs =
  "["
  ^ String.concat ","
      (List.map
         (fun (c : coord) ->
           Printf.sprintf "(%d,%d)" c.Cim_arch.Chip.x c.Cim_arch.Chip.y)
         cs)
  ^ "]"

let loc_str = function
  | Flow.Main_memory -> "mm"
  | Flow.Buffer -> "buf"
  | Flow.Mem_arrays cs -> "mem" ^ coords_str cs

let cmd_str = function
  | Switch { target; arrays } ->
    Printf.sprintf "SWITCH     %s %s"
      (Mode.transition_to_string target)
      (coords_str arrays)
  | Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Printf.sprintf "WRITE      %s node=%d %s slice=[%d,%d) bytes=%d%s" label
      node_id (coords_str arrays) slice.Flow.lo slice.Flow.hi bytes
      (if in_place then " in-place" else "")
  | Dma_load { tensor; src; dst; bytes } ->
    Printf.sprintf "DMA_LOAD   %s %s -> %s bytes=%d" tensor (loc_str src)
      (loc_str dst) bytes
  | Dma_store { tensor; src; dst; bytes } ->
    Printf.sprintf "DMA_STORE  %s %s -> %s bytes=%d" tensor (loc_str src)
      (loc_str dst) bytes
  | Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
    ->
    Printf.sprintf
      "COMPUTE    %s node=%d %s mem=%s in=[%s] out=%s slice=[%d,%d) macs=%h ai=%h"
      label node_id (coords_str arrays) (coords_str mem_arrays)
      (String.concat "," inputs) output slice.Flow.lo slice.Flow.hi macs ai
  | Vec { label; node_id; inputs; output } ->
    Printf.sprintf "VEC        %s node=%d in=[%s] out=%s" label node_id
      (String.concat "," inputs) output
  | Par_begin n -> Printf.sprintf "PAR_BEGIN  %d" n
  | Par_end -> "PAR_END"

let disassemble img =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "; source: %s  (%d commands, %d words)\n" img.source
       (cmd_count img) (word_count img));
  let off = ref 0 in
  Array.iter
    (fun c ->
      Buffer.add_string b (Printf.sprintf "%06x  %s\n" !off (cmd_str c));
      off := !off + words_of_cmd c)
    img.cmds;
  Buffer.contents b
