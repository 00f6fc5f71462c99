module Mode = Cim_arch.Mode

type coord = Cim_arch.Chip.coord

let op_switch = 1
let op_write = 2
let op_dma_load = 3
let op_dma_store = 4
let op_compute = 5
let op_vec = 6
let op_par_begin = 7
let op_par_end = 8

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

let magic = "CMSI"
let version = 1

(* The encoder keeps one state per domain ([Domain.DLS]) that is reset on
   every call: [head] holds the header and the string table, and the
   command words go into the domain's shared sink ([Sink.shared]), the one
   [Flow]'s printer uses, so a domain holds one buffer the size of its
   largest program's text for both. Both parts grow by doubling and keep
   their size, so encoding allocates nothing once they have reached the
   largest program's size; [encode] copies the image out once and
   [digest] hashes the two parts where they lie. *)
module Enc = struct
  type part = Sink.t = { mutable buf : Bytes.t; mutable len : int }

  type t = {
    head : part;                         (* header and string table *)
    mutable words : part;                (* command words, u32 LE *)
    strings : (string, int) Hashtbl.t;   (* string -> table index *)
    mutable n_strings : int;
    mutable count_at : int;              (* where [head] holds the table's count *)
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { head = Sink.create 4096; words = Sink.create 0;
          strings = Hashtbl.create 256; n_strings = 0; count_at = 0 })

  let[@inline] reserve s n = if s.len + n > Bytes.length s.buf then Sink.grow s n

  let[@inline] add_u32 s w =
    reserve s 4;
    Bytes.set_int32_le s.buf s.len (Int32.of_int w);
    s.len <- s.len + 4

  let add_raw s str =
    let n = String.length str in
    reserve s n;
    Bytes.blit_string str 0 s.buf s.len n;
    s.len <- s.len + n

  let add_string s str =
    add_u32 s (String.length str);
    add_raw s str

  (* this domain's sink, reset, holding the header up to the string
     table's count, which [finish] fills in *)
  let start source =
    let e = Domain.DLS.get key in
    e.head.len <- 0;
    e.words <- Sink.shared ();
    Hashtbl.clear e.strings;
    e.n_strings <- 0;
    add_raw e.head magic;
    add_u32 e.head version;
    add_string e.head source;
    e.count_at <- e.head.len;
    add_u32 e.head 0;
    e

  (* the string count, and the command-word count that ends [head] *)
  let finish e =
    Bytes.set_int32_le e.head.buf e.count_at (Int32.of_int e.n_strings);
    add_u32 e.head (e.words.len / 4)

  let[@inline] word e w =
    if w < 0 || w > u32_max then
      invalid_arg (Printf.sprintf "Isa.encode: word %d outside u32 range" w);
    add_u32 e.words w

  let sidx e s =
    match Hashtbl.find_opt e.strings s with
    | Some i -> word e i
    | None ->
      let i = e.n_strings in
      Hashtbl.add e.strings s i;
      add_string e.head s;
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

  let rec coord_words e = function
    | [] -> ()
    | c :: cs ->
      word e (pack_coord c);
      coord_words e cs

  let coords e cs =
    word e (List.length cs);
    coord_words e cs

  let location e = function
    | Flow.Main_memory -> word e 0
    | Flow.Buffer -> word e 1
    | Flow.Mem_arrays cs ->
      word e 2;
      coords e cs
end

(* one instruction; a [Parallel] block is its PAR_BEGIN, its body and its
   PAR_END, and may not hold another block *)
let rec encode_instr ~nested e = function
  | Flow.Switch { target; arrays } ->
    Enc.word e op_switch;
    Enc.word e (match target with Mode.To_memory -> 0 | Mode.To_compute -> 1);
    Enc.coords e arrays
  | Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Enc.word e op_write;
    Enc.sidx e label;
    Enc.word e (pack_i32 node_id);
    Enc.coords e arrays;
    Enc.word e (pack_i32 slice.Flow.lo);
    Enc.word e (pack_i32 slice.Flow.hi);
    Enc.byte_count e bytes;
    Enc.word e (if in_place then 1 else 0)
  | Flow.Load { tensor; src; dst; bytes } ->
    Enc.word e op_dma_load;
    Enc.sidx e tensor;
    Enc.location e src;
    Enc.location e dst;
    Enc.byte_count e bytes
  | Flow.Store { tensor; src; dst; bytes } ->
    Enc.word e op_dma_store;
    Enc.sidx e tensor;
    Enc.location e src;
    Enc.location e dst;
    Enc.byte_count e bytes
  | Flow.Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai }
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
  | Flow.Vector_op { label; node_id; inputs; output } ->
    Enc.word e op_vec;
    Enc.sidx e label;
    Enc.word e (pack_i32 node_id);
    Enc.word e (List.length inputs);
    List.iter (Enc.sidx e) inputs;
    Enc.sidx e output
  | Flow.Parallel body ->
    if nested then invalid_arg "Isa.encode: nested Parallel block";
    Enc.word e op_par_begin;
    Enc.word e (List.length body);
    List.iter (encode_instr ~nested:true e) body;
    Enc.word e op_par_end

(* [p]'s image in this domain's sink, valid until the next call *)
let encode_in_sink (p : Flow.program) =
  let e = Enc.start p.Flow.source in
  List.iter (encode_instr ~nested:false e) p.Flow.instrs;
  Enc.finish e;
  e

let encode p =
  let { Enc.head; words; _ } = encode_in_sink p in
  let b = Bytes.create (head.Enc.len + words.Enc.len) in
  Bytes.blit head.Enc.buf 0 b 0 head.Enc.len;
  Bytes.blit words.Enc.buf 0 b head.Enc.len words.Enc.len;
  Bytes.unsafe_to_string b

let digest p =
  let { Enc.head; words; _ } = encode_in_sink p in
  Digest.to_hex
    (Digest.string
       (Digest.subbytes head.Enc.buf 0 head.Enc.len
       ^ Digest.subbytes words.Enc.buf 0 words.Enc.len))

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

let decode_program s =
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
  if d.Dec.pos + (4 * n_words) <> String.length s then
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
  (* [top] holds the program's instructions so far, reversed; [block] the
     open PAR_BEGIN's byte offset, announced count and body, reversed *)
  let top = ref [] and block = ref None in
  let push i =
    match !block with
    | None -> top := i :: !top
    | Some (at, n, body) -> block := Some (at, n, i :: body)
  in
  while d.Dec.pos < String.length s do
    let at = d.Dec.pos in
    match Dec.u32 d with
    | op when op = op_switch ->
      let target =
        match Dec.u32 d with
        | 0 -> Mode.To_memory
        | 1 -> Mode.To_compute
        | t -> Dec.fail "unknown switch target %d" t
      in
      push (Flow.Switch { target; arrays = coords () })
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
      push (Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place })
    | op when op = op_dma_load ->
      let tensor = str (Dec.u32 d) in
      let src = location () in
      let dst = location () in
      push (Flow.Load { tensor; src; dst; bytes = Dec.byte_count d })
    | op when op = op_dma_store ->
      let tensor = str (Dec.u32 d) in
      let src = location () in
      let dst = location () in
      push (Flow.Store { tensor; src; dst; bytes = Dec.byte_count d })
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
      push
        (Flow.Compute
           { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai })
    | op when op = op_vec ->
      let label = str (Dec.u32 d) in
      let node_id = unpack_i32 (Dec.u32 d) in
      let inputs = strings () in
      push (Flow.Vector_op { label; node_id; inputs; output = str (Dec.u32 d) })
    | op when op = op_par_begin -> (
      let n = Dec.u32 d in
      match !block with
      | Some (open_at, _, _) ->
        Dec.fail "PAR_BEGIN at byte %d inside the block opened at byte %d" at
          open_at
      | None -> block := Some (at, n, []))
    | op when op = op_par_end -> (
      match !block with
      | None -> Dec.fail "PAR_END at byte %d without PAR_BEGIN" at
      | Some (open_at, n, body) ->
        let len = List.length body in
        if len <> n then
          Dec.fail "PAR_BEGIN at byte %d announces %d commands, block has %d"
            open_at n len;
        block := None;
        top := Flow.Parallel (List.rev body) :: !top)
    | op -> Dec.fail "unknown opcode %d at byte %d" op at
  done;
  (match !block with
  | Some (open_at, _, _) -> Dec.fail "PAR_BEGIN at byte %d is never closed" open_at
  | None -> ());
  { Flow.source; instrs = List.rev !top }

let decode s =
  match decode_program s with
  | p -> Ok p
  | exception Bad m -> Error m

(* ---- disassembler -------------------------------------------------------- *)

let loc_words = function
  | Flow.Main_memory | Flow.Buffer -> 1
  | Flow.Mem_arrays cs -> 2 + List.length cs

(* mirror of the encoder, counting only *)
let rec words_of_instr = function
  | Flow.Switch { arrays; _ } -> 3 + List.length arrays
  | Flow.Write_weights { arrays; _ } -> 9 + List.length arrays
  | Flow.Load { src; dst; _ } | Flow.Store { src; dst; _ } ->
    4 + loc_words src + loc_words dst
  | Flow.Compute { arrays; mem_arrays; inputs; _ } ->
    13 + List.length arrays + List.length mem_arrays + List.length inputs
  | Flow.Vector_op { inputs; _ } -> 5 + List.length inputs
  | Flow.Parallel body ->
    List.fold_left (fun n i -> n + words_of_instr i) 3 body

let rec cmds_of_instr = function
  | Flow.Parallel body -> List.fold_left (fun n i -> n + cmds_of_instr i) 2 body
  | _ -> 1

let sum f (p : Flow.program) = List.fold_left (fun n i -> n + f i) 0 p.Flow.instrs
let word_count = sum words_of_instr
let cmd_count = sum cmds_of_instr

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

(* the listing line of one command; a block's PAR_BEGIN line, its body's
   and its PAR_END's are written by [disassemble] *)
let cmd_str = function
  | Flow.Switch { target; arrays } ->
    Printf.sprintf "SWITCH     %s %s"
      (Mode.transition_to_string target)
      (coords_str arrays)
  | Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place } ->
    Printf.sprintf "WRITE      %s node=%d %s slice=[%d,%d) bytes=%d%s" label
      node_id (coords_str arrays) slice.Flow.lo slice.Flow.hi bytes
      (if in_place then " in-place" else "")
  | Flow.Load { tensor; src; dst; bytes } ->
    Printf.sprintf "DMA_LOAD   %s %s -> %s bytes=%d" tensor (loc_str src)
      (loc_str dst) bytes
  | Flow.Store { tensor; src; dst; bytes } ->
    Printf.sprintf "DMA_STORE  %s %s -> %s bytes=%d" tensor (loc_str src)
      (loc_str dst) bytes
  | Flow.Compute
      { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai } ->
    Printf.sprintf
      "COMPUTE    %s node=%d %s mem=%s in=[%s] out=%s slice=[%d,%d) macs=%h ai=%h"
      label node_id (coords_str arrays) (coords_str mem_arrays)
      (String.concat "," inputs) output slice.Flow.lo slice.Flow.hi macs ai
  | Flow.Vector_op { label; node_id; inputs; output } ->
    Printf.sprintf "VEC        %s node=%d in=[%s] out=%s" label node_id
      (String.concat "," inputs) output
  | Flow.Parallel body -> Printf.sprintf "PAR_BEGIN  %d" (List.length body)

let disassemble (p : Flow.program) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "; source: %s  (%d commands, %d words)\n" p.Flow.source
       (cmd_count p) (word_count p));
  let off = ref 0 in
  let line s words =
    Buffer.add_string b (Printf.sprintf "%06x  %s\n" !off s);
    off := !off + words
  in
  let rec emit i =
    match i with
    | Flow.Parallel body ->
      line (cmd_str i) 2;
      List.iter emit body;
      line "PAR_END" 1
    | _ -> line (cmd_str i) (words_of_instr i)
  in
  List.iter emit p.Flow.instrs;
  Buffer.contents b

(* kept only for bench/perf *)
let of_flow (p : Flow.program) = p
