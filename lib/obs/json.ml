type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing --- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_literal x =
  if Float.is_nan x || not (Float.is_finite x) then "null"
  else begin
    let s = Printf.sprintf "%.17g" x in
    (* %.17g prints integral floats without a decimal point; add one so the
       value parses back as a Float, not an Int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let rec emit indent v =
    let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
    let nl () = if pretty then Buffer.add_char buf '\n' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_literal x)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (indent + 1);
          emit (indent + 1) x)
        xs;
      nl ();
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (indent + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf (if pretty then "\": " else "\":");
          emit (indent + 1) x)
        kvs;
      nl ();
      pad indent;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* --- parsing --- *)

(* The reader tests [pos] against the length before every
   [String.unsafe_get], so it allocates nothing per character: a string
   without escapes is one [String.sub], and a number of an optional minus
   and at most 18 digits (below [max_int]) is read in place. *)
type state = { src : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let[@inline] more st = st.pos < String.length st.src

(* the current character; only after [more st] *)
let[@inline] cur st = String.unsafe_get st.src st.pos

let[@inline] at st c = more st && cur st = c

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  if more st then
    match cur st with
    | ' ' | '\t' | '\n' | '\r' ->
      advance st;
      skip_ws st
    | _ -> ()

let expect st c =
  if not (more st) then fail st "expected %C, found end of input" c
  else if cur st = c then advance st
  else fail st "expected %C, found %C" c (cur st)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal"

(* the first quote or backslash at or after [i], or the end of [src] *)
let rec string_stop src i =
  if i >= String.length src then i
  else match String.unsafe_get src i with '"' | '\\' -> i | _ -> string_stop src (i + 1)

(* the rest of a string from the backslash at [st.pos] *)
let rec escapes st buf =
  if not (more st) then fail st "unterminated string";
  match cur st with
  | '"' -> advance st
  | _ (* '\\' *) ->
    advance st;
    (if not (more st) then fail st "bad escape"
     else
       match cur st with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if st.pos + 4 >= String.length st.src then fail st "truncated \\u escape";
         let hex = String.sub st.src (st.pos + 1) 4 in
         let code =
           try int_of_string ("0x" ^ hex)
           with Failure _ -> fail st "bad \\u escape %s" hex
         in
         (* decode into UTF-8; surrogate pairs are passed through as two
            3-byte sequences, good enough for trace names *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end;
         st.pos <- st.pos + 4
       | _ -> fail st "bad escape");
    advance st;
    let stop = string_stop st.src st.pos in
    Buffer.add_substring buf st.src st.pos (stop - st.pos);
    st.pos <- stop;
    escapes st buf

let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = string_stop st.src start in
  st.pos <- stop;
  if at st '"' then begin
    advance st;
    String.sub st.src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf st.src start (stop - start);
    escapes st buf;
    Buffer.contents buf
  end

let is_num_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* any number the in-place read declines, through [float_of_string] and
   [int_of_string] *)
let number_token st start =
  st.pos <- start;
  while more st && is_num_char (cur st) do
    advance st
  done;
  let token = String.sub st.src start (st.pos - start) in
  let has_frac = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token in
  if has_frac then
    match float_of_string_opt token with
    | Some f -> Float f
    | None -> fail st "bad number %S" token
  else
    match int_of_string_opt token with
    | Some i -> Int i
    | None -> begin
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> fail st "bad number %S" token
    end

let parse_number st =
  let start = st.pos in
  let neg = at st '-' in
  if neg then advance st;
  let digits = st.pos in
  let n = ref 0 in
  while more st && cur st >= '0' && cur st <= '9' && st.pos - digits < 18 do
    n := (10 * !n) + (Char.code (cur st) - 48);
    advance st
  done;
  if st.pos = digits || (more st && is_num_char (cur st)) then number_token st start
  else Int (if neg then - !n else !n)

let rec parse_value st =
  skip_ws st;
  if not (more st) then fail st "unexpected end of input";
  match cur st with
  | '"' -> String (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '[' ->
    advance st;
    skip_ws st;
    if at st ']' then begin
      advance st;
      List []
    end
    else
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        if at st ',' then begin
          advance st;
          items (v :: acc)
        end
        else if at st ']' then begin
          advance st;
          List.rev (v :: acc)
        end
        else fail st "expected ',' or ']'"
      in
      List (items [])
  | '{' ->
    advance st;
    skip_ws st;
    if at st '}' then begin
      advance st;
      Obj []
    end
    else
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        if at st ',' then begin
          advance st;
          members ((k, v) :: acc)
        end
        else if at st '}' then begin
          advance st;
          List.rev ((k, v) :: acc)
        end
        else fail st "expected ',' or '}'"
      in
      Obj (members [])
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st "unexpected character %C" c

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
