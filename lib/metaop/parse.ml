module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode

exception Bad of string

let perr fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* a number literal keeps its text: integer slots read it exactly, float
   slots as a float *)
type token =
  | Tident of string
  | Tstr of string
  | Tnum of string
  | Tlp | Trp | Tlb | Trb | Tlc | Trc
  | Tcomma | Teq | Tarrow
  | Teof

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '/'
  in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '(' then (emit Tlp; incr i)
    else if c = ')' then (emit Trp; incr i)
    else if c = '[' then (emit Tlb; incr i)
    else if c = ']' then (emit Trb; incr i)
    else if c = '{' then (emit Tlc; incr i)
    else if c = '}' then (emit Trc; incr i)
    else if c = ',' then (emit Tcomma; incr i)
    else if c = '=' then (emit Teq; incr i)
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '>' then (emit Tarrow; i := !i + 2)
    else if c = '"' then begin
      (* find the closing quote, stepping over escaped characters, then
         undo the OCaml escapes [%S] wrote *)
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        j := !j + if src.[!j] = '\\' then 2 else 1
      done;
      if !j >= n then perr "unterminated string";
      let raw = String.sub src (!i + 1) (!j - !i - 1) in
      (match Scanf.unescaped raw with
      | s -> emit (Tstr s)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        perr "bad escape in string \"%s\"" raw);
      i := !j + 1
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let j = ref !i in
      if src.[!j] = '-' then incr j;
      (* consume while the char continues a float literal; '+'/'-' only
         directly after an exponent marker *)
      let continue_ = ref true in
      while !j < n && !continue_ do
        let c = src.[!j] in
        if is_digit c || c = '.' || c = 'e' || c = 'E' then incr j
        else if (c = '+' || c = '-') && !j > !i
                && (src.[!j - 1] = 'e' || src.[!j - 1] = 'E') then incr j
        else continue_ := false
      done;
      emit (Tnum (String.sub src !i (!j - !i)));
      i := !j
    end
    else if is_ident c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      emit (Tident (String.sub src !i (!j - !i)));
      i := !j
    end
    else perr "unexpected character %C" c
  done;
  emit Teof;
  List.rev !toks

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> Teof | t :: _ -> t
let advance s = match s.toks with [] -> () | _ :: r -> s.toks <- r

let expect s t what = if peek s = t then advance s else perr "expected %s" what

let ident s = match peek s with
  | Tident x -> advance s; x
  | _ -> perr "expected identifier"

let str s = match peek s with Tstr x -> advance s; x | _ -> perr "expected string"

let literal s = match peek s with Tnum x -> advance s; x | _ -> perr "expected number"

let num s =
  let x = literal s in
  match float_of_string_opt x with Some f -> f | None -> perr "bad number literal %S" x

let int_ s =
  let x = literal s in
  match int_of_string_opt x with Some n -> n | None -> perr "expected an integer, got %S" x

let coord s =
  expect s Tlp "'('";
  let x = int_ s in
  expect s Tcomma "','";
  let y = int_ s in
  expect s Trp "')'";
  { Chip.x; y }

let coords s =
  expect s Tlb "'['";
  let rec go acc =
    match peek s with
    | Trb -> advance s; List.rev acc
    | Tcomma -> advance s; go acc
    | _ -> go (coord s :: acc)
  in
  go []

let names s =
  expect s Tlp "'('";
  let rec go acc =
    match peek s with
    | Trp -> advance s; List.rev acc
    | Tcomma -> advance s; go acc
    | _ -> go (ident s :: acc)
  in
  go []

let slice s =
  (* [lo,hi) *)
  expect s Tlb "'['";
  let lo = int_ s in
  expect s Tcomma "','";
  let hi = int_ s in
  expect s Trp "')'";
  { Flow.lo; hi }

let location s =
  match ident s with
  | "main" -> Flow.Main_memory
  | "buffer" -> Flow.Buffer
  | "arrays" -> Flow.Mem_arrays (coords s)
  | w -> perr "unknown location %S" w

let key s expected =
  let k = ident s in
  if k <> expected then perr "expected key %S, got %S" expected k;
  expect s Teq "'='"

let rec instr s =
  match peek s with
  | Tident "parallel" ->
    advance s;
    expect s Tlc "'{'";
    let rec go acc =
      match peek s with
      | Trc -> advance s; Flow.Parallel (List.rev acc)
      | _ -> go (instr s :: acc)
    in
    go []
  | Tident "CM.switch" ->
    advance s;
    expect s Tlp "'('";
    let target =
      match ident s with
      | "TOM" -> Mode.To_memory
      | "TOC" -> Mode.To_compute
      | w -> perr "unknown switch type %S" w
    in
    expect s Tcomma "','";
    let arrays = coords s in
    expect s Trp "')'";
    Flow.Switch { target; arrays }
  | Tident "CIM.write" ->
    advance s;
    expect s Tlp "'('";
    let label = str s in
    expect s Tcomma "','";
    key s "node";
    let node_id = int_ s in
    expect s Tcomma "','";
    key s "arrays";
    let arrays = coords s in
    expect s Tcomma "','";
    key s "slice";
    let sl = slice s in
    expect s Tcomma "','";
    key s "bytes";
    let bytes = int_ s in
    expect s Tcomma "','";
    key s "inplace";
    let in_place = int_ s <> 0 in
    expect s Trp "')'";
    Flow.Write_weights { label; node_id; arrays; slice = sl; bytes; in_place }
  | Tident ("MEM.load" | "MEM.store") ->
    let which = ident s in
    expect s Tlp "'('";
    let tensor = ident s in
    expect s Tcomma "','";
    let src = location s in
    expect s Tarrow "'->'";
    let dst = location s in
    expect s Tcomma "','";
    let bytes = int_ s in
    expect s Trp "')'";
    if which = "MEM.load" then Flow.Load { tensor; src; dst; bytes }
    else Flow.Store { tensor; src; dst; bytes }
  | Tident "CIM.compute" ->
    advance s;
    expect s Tlp "'('";
    let label = str s in
    expect s Tcomma "','";
    key s "node";
    let node_id = int_ s in
    expect s Tcomma "','";
    key s "arrays";
    let arrays = coords s in
    expect s Tcomma "','";
    key s "mem";
    let mem_arrays = coords s in
    expect s Tcomma "','";
    key s "in";
    let inputs = names s in
    expect s Tcomma "','";
    key s "out";
    let output = match names s with [ o ] -> o | _ -> perr "expected one output" in
    expect s Tcomma "','";
    key s "slice";
    let sl = slice s in
    expect s Tcomma "','";
    key s "macs";
    let macs = num s in
    expect s Tcomma "','";
    key s "ai";
    let ai = num s in
    expect s Trp "')'";
    Flow.Compute
      { label; node_id; arrays; mem_arrays; inputs; output; slice = sl; macs; ai }
  | Tident "VEC.op" ->
    advance s;
    expect s Tlp "'('";
    let label = str s in
    expect s Tcomma "','";
    key s "node";
    let node_id = int_ s in
    expect s Tcomma "','";
    key s "in";
    let inputs = names s in
    expect s Tcomma "','";
    key s "out";
    let output = match names s with [ o ] -> o | _ -> perr "expected one output" in
    expect s Trp "')'";
    Flow.Vector_op { label; node_id; inputs; output }
  | Tident w -> perr "unknown operator %S" w
  | _ -> perr "expected an instruction"

let program src =
  let s = { toks = lex src } in
  (match peek s with
  | Tident "flow" -> advance s
  | _ -> perr "expected 'flow'");
  let source = str s in
  let rec go acc =
    match peek s with Teof -> List.rev acc | _ -> go (instr s :: acc)
  in
  { Flow.source; instrs = go [] }

let program_of_string src = match program src with p -> Ok p | exception Bad m -> Error m
