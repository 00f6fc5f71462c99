module Shape = Cim_tensor.Shape

exception Parse_error of string

let perr fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let shape_to_string = function
  | [] -> "scalar"
  | dims -> String.concat "x" (List.map string_of_int dims)

let attr_to_string (k, v) =
  match v with
  | Attr.Int i -> Printf.sprintf "%s=%d" k i
  | Attr.Float f -> Printf.sprintf "%s=%h" k f
  | Attr.Ints l ->
    Printf.sprintf "%s=[%s]" k (String.concat "," (List.map string_of_int l))
  | Attr.Str s -> Printf.sprintf "%s=%S" k s

let to_string (g : Graph.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %S {\n" g.graph_name);
  List.iter
    (fun (n, s) ->
      Buffer.add_string buf (Printf.sprintf "  input %s %s\n" n (shape_to_string s)))
    g.graph_inputs;
  List.iter
    (fun (i : Graph.initializer_) ->
      Buffer.add_string buf
        (Printf.sprintf "  init %s %s\n" i.init_name (shape_to_string i.init_shape)))
    g.initializers;
  List.iter
    (fun (nd : Graph.node) ->
      Buffer.add_string buf
        (Printf.sprintf "  node %d %S %s (%s) -> (%s) { %s }\n" nd.id nd.name
           (Op.to_string nd.op)
           (String.concat ", " nd.inputs)
           (String.concat ", " nd.outputs)
           (String.concat " " (List.map attr_to_string nd.attrs))))
    g.nodes;
  List.iter
    (fun o -> Buffer.add_string buf (Printf.sprintf "  output %s\n" o))
    g.graph_outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- Lexer --- *)

type token =
  | Ident of string
  | QString of string
  | Num of int
  | Lbrace | Rbrace | Lparen | Rparen | Lbracket | Rbracket
  | Comma | Arrow | Equals
  | Eof

(* End of the [%h] float starting at [i] ([-]0x<hex>[.<hex>]p<sign><dec>,
   the form [to_string] prints float attributes in), if one does. *)
let hex_float_end src i =
  let n = String.length src in
  let rec skip ok j = if j < n && ok src.[j] then skip ok (j + 1) else j in
  let is_dec c = c >= '0' && c <= '9' in
  let is_hex c = is_dec c || (c >= 'a' && c <= 'f') in
  let j = if src.[i] = '-' then i + 1 else i in
  if j + 1 < n && src.[j] = '0' && src.[j + 1] = 'x' then
    let k = skip is_hex (j + 2) in
    let k = if k < n && src.[k] = '.' then skip is_hex (k + 1) else k in
    if k + 1 < n && src.[k] = 'p' && (src.[k + 1] = '+' || src.[k + 1] = '-')
    then
      let e = skip is_dec (k + 2) in
      if e > k + 2 then Some e else None
    else None
  else None

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '/'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '{' then (emit Lbrace; incr i)
    else if c = '}' then (emit Rbrace; incr i)
    else if c = '(' then (emit Lparen; incr i)
    else if c = ')' then (emit Rparen; incr i)
    else if c = '[' then (emit Lbracket; incr i)
    else if c = ']' then (emit Rbracket; incr i)
    else if c = ',' then (emit Comma; incr i)
    else if c = '=' then (emit Equals; incr i)
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '>' then (emit Arrow; i := !i + 2)
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
      | s -> emit (QString s)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        perr "bad escape in string \"%s\"" raw);
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let j =
        match hex_float_end src !i with
        | Some j -> j
        | None ->
          let j = ref (if c = '-' then !i + 1 else !i) in
          while !j < n && ((src.[!j] >= '0' && src.[!j] <= '9') || src.[!j] = 'x') do
            incr j
          done;
          !j
      in
      let word = String.sub src !i (j - !i) in
      i := j;
      (* "1x3x224x224" is a shape literal and "0x1.8p+2" a float — keep both
         as Idents (parse_attr_value reads the float back) *)
      if String.contains word 'x' then emit (Ident word)
      else
        match int_of_string_opt word with
        | Some v -> emit (Num v)
        | None -> perr "bad integer literal %S" word
    end
    else if
      is_ident_char c || (c = '-' && !i + 1 < n && is_ident_char src.[!i + 1])
    then begin
      (* a '-' that starts neither an arrow nor a number: -infinity, -nan *)
      let j = ref (!i + 1) in
      while !j < n && is_ident_char src.[!j] do incr j done;
      emit (Ident (String.sub src !i (!j - !i)));
      i := !j
    end
    else perr "unexpected character %C at offset %d" c !i
  done;
  emit Eof;
  List.rev !toks

(* --- Parser --- *)

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> Eof | t :: _ -> t
let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let expect s t =
  if peek s = t then advance s else perr "unexpected token (parser)"

let ident s =
  match peek s with
  | Ident x -> advance s; x
  | Num x -> advance s; string_of_int x (* bare numeric tensor names *)
  | _ -> perr "expected identifier"

let qstring s =
  match peek s with QString x -> advance s; x | _ -> perr "expected string"

let num s = match peek s with Num x -> advance s; x | _ -> perr "expected number"

let parse_shape word =
  if word = "scalar" then Shape.scalar
  else
    try Shape.of_list (List.map int_of_string (String.split_on_char 'x' word))
    with _ -> perr "bad shape literal %S" word

let parse_name_list s =
  expect s Lparen;
  let rec go acc =
    match peek s with
    | Rparen -> advance s; List.rev acc
    | Comma -> advance s; go acc
    | _ -> go (ident s :: acc)
  in
  go []

let parse_attr_value s =
  match peek s with
  | Num v -> advance s; Attr.Int v
  | QString v -> advance s; Attr.Str v
  | Lbracket ->
    advance s;
    let rec go acc =
      match peek s with
      | Rbracket -> advance s; Attr.Ints (List.rev acc)
      | Comma -> advance s; go acc
      | Num v -> advance s; go (v :: acc)
      | _ -> perr "expected int in list attribute"
    in
    go []
  | Ident v ->
    advance s;
    (try Attr.Float (float_of_string v) with _ -> Attr.Str v)
  | _ -> perr "expected attribute value"

let parse_attrs s =
  expect s Lbrace;
  let rec go acc =
    match peek s with
    | Rbrace -> advance s; List.rev acc
    | Ident k ->
      advance s;
      expect s Equals;
      let v = parse_attr_value s in
      go ((k, v) :: acc)
    | _ -> perr "expected attribute name or '}'"
  in
  go []

let of_string src =
  let s = { toks = lex src } in
  (match peek s with
  | Ident "graph" -> advance s
  | _ -> perr "expected 'graph'");
  let gname = qstring s in
  expect s Lbrace;
  let inputs = ref [] and inits = ref [] and nodes = ref [] and outputs = ref [] in
  let rec loop () =
    match peek s with
    | Rbrace -> advance s
    | Ident "input" ->
      advance s;
      let n = ident s in
      let sh = parse_shape (ident s) in
      inputs := (n, sh) :: !inputs;
      loop ()
    | Ident "init" ->
      advance s;
      let n = ident s in
      let sh = parse_shape (ident s) in
      inits := { Graph.init_name = n; init_shape = sh; value = None } :: !inits;
      loop ()
    | Ident "output" ->
      advance s;
      outputs := ident s :: !outputs;
      loop ()
    | Ident "node" ->
      advance s;
      let id = num s in
      let name = qstring s in
      let opname = ident s in
      let op =
        match Op.of_string opname with
        | Some op -> op
        | None -> perr "unknown op %S" opname
      in
      let ins = parse_name_list s in
      expect s Arrow;
      let outs = parse_name_list s in
      let attrs = parse_attrs s in
      nodes := { Graph.id; name; op; inputs = ins; outputs = outs; attrs } :: !nodes;
      loop ()
    | Eof -> perr "unexpected end of input"
    | _ -> perr "unexpected token in graph body"
  in
  loop ();
  Graph.create ~name:gname ~nodes:(List.rev !nodes) ~inputs:(List.rev !inputs)
    ~outputs:(List.rev !outputs) ~initializers:(List.rev !inits)
