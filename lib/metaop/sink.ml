type t = { mutable buf : Bytes.t; mutable len : int }

let create n = { buf = Bytes.create n; len = 0 }

let grow s n =
  let b = Bytes.create (max (2 * Bytes.length s.buf) (s.len + n)) in
  Bytes.blit s.buf 0 b 0 s.len;
  s.buf <- b

let key = Domain.DLS.new_key (fun () -> create 65536)

let shared () =
  let s = Domain.DLS.get key in
  s.len <- 0;
  s
