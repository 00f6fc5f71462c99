(** Parser for the meta-operator concrete syntax emitted by {!Flow.pp}, so
    flows can be stored, inspected and fed back to the simulator (and so the
    syntax of Fig. 13 is round-trip tested). *)

val program_of_string : string -> (Flow.program, string) result
(** [Error] names what is malformed; never raises. An integer field reads
    its literal exactly, so a literal that is not an int ([1.5], [1e3], a
    value past [max_int]) is an [Error]; a float field reads any float
    literal. *)
