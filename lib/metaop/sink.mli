(** Growable byte sinks for the program writers.

    A sink doubles as needed and keeps its largest size. {!shared} is the
    one large sink of the calling domain ([Domain.DLS]): {!Flow} prints a
    program's text into it and {!Isa} writes a program's command words into
    it, so a domain holds one buffer the size of its largest output rather
    than one per format, and concurrent writers on pool workers never share
    one. Its contents are valid until the next {!shared} call in the same
    domain; neither writer calls the other. *)

type t = { mutable buf : Bytes.t; mutable len : int }
(** [buf] holds [len] bytes of output; the rest is spare capacity. *)

val create : int -> t
(** An empty sink of the given initial capacity. *)

val grow : t -> int -> unit
(** [grow s n] makes room for [n] more bytes after [s.len], at least
    doubling the capacity. Writers test the room themselves and call it
    only when it is short, so the test stays inlined in their loops. *)

val shared : unit -> t
(** This domain's large sink, emptied (its capacity kept). *)
