(** Meta-operator flow (§4.4, Fig. 13): the compiler's output language.
    Alongside the paper's [CM.switch] operator and [parallel{}] grouping we
    carry standard compute/memory operators; each instruction references the
    source-graph node it implements so the functional simulator can check
    results against the reference executor. *)

type coord = Cim_arch.Chip.coord

(** Where a tensor lives when an instruction touches it. *)
type location =
  | Main_memory
  | Buffer                      (** the chip's original peripheral buffer *)
  | Mem_arrays of coord list    (** scratchpad built from memory-mode arrays *)

type slice = { lo : int; hi : int }
(** Output-feature range [lo, hi) a sub-operator covers; the full operator
    is the union of its sub-operators' slices. *)

type instr =
  | Switch of { target : Cim_arch.Mode.transition; arrays : coord list }
      (** [CM.switch(TOM|TOC, addr)] batched over arrays. *)
  | Write_weights of {
      label : string;
      node_id : int;
      arrays : coord list;
      slice : slice;
      bytes : int;
      in_place : bool;
          (** the arrays already hold the stationary data from a previous
              segment's memory-mode residency (§5.3): the write is a free
              relabel, not a reprogramming *)
    }  (** program a compute array group with (a slice of) an operator's
           stationary matrix *)
  | Load of { tensor : string; src : location; dst : location; bytes : int }
  | Store of { tensor : string; src : location; dst : location; bytes : int }
  | Compute of {
      label : string;
      node_id : int;
      arrays : coord list;        (** compute-mode arrays used *)
      mem_arrays : coord list;    (** memory-mode arrays feeding it *)
      inputs : string list;
      output : string;
      slice : slice;
      macs : float;
      ai : float;
    }
  | Vector_op of { label : string; node_id : int; inputs : string list; output : string }
      (** non-CIM operator executed on the peripheral vector unit *)
  | Parallel of instr list
      (** operators of one network segment, executed pipelined *)

type program = { source : string; instrs : instr list }

val switched_arrays : program -> (Cim_arch.Mode.transition * coord) list
(** Every (transition, array) pair in program order — the raw CM.switch
    stream. *)

val count_switches : program -> int

val validate : Cim_arch.Chip.t -> program -> (unit, string) result
(** Structural checks: coordinates in range, no array used in both modes
    inside one [Parallel] block, slices well-formed, no nested [Parallel]. *)

val pp : Format.formatter -> program -> unit
(** Concrete syntax (grammar of Fig. 13); parseable by {!Parse}. A
    [Format] printer, kept as the reference that {!to_string} is tested
    against. *)

val to_string : program -> string
(** The same bytes as {!pp}, except that an empty program or parallel
    block gets no blank line. This text is the program's identity.

    {!to_string} and {!digest} print into one byte sink per domain
    ([Domain.DLS]), reset on every call, so concurrent calls on pool
    workers never share one. The sink starts at 64 KiB, doubles as needed
    and keeps its largest size for the life of the domain: 1 MiB after
    the largest zoo program (the opt-13b decode layer at kv 2047, about
    876 KiB of text on DynaPlasia). The printer is not re-entrant
    within a domain; nothing it calls prints a program. [to_string]
    returns a copy of the sink's text. *)

val digest : program -> string
(** MD5 hex of {!to_string}, hashed in the sink without copying the
    text: the [program_md5] the compilation cache stores and compares on
    every replay, and the CLI prints. *)
