type kind = Continuous | Integer
type backend = Revised | Dense

type result =
  | Optimal of Lp.solution
  | Infeasible
  | Unbounded
  | Node_limit of Lp.solution option

let m_nodes = Cim_obs.Metrics.counter "solver.bb.nodes"
let m_pruned = Cim_obs.Metrics.counter "solver.bb.pruned"
let m_infeasible = Cim_obs.Metrics.counter "solver.bb.infeasible_nodes"
let m_incumbents = Cim_obs.Metrics.counter "solver.bb.incumbents"
let m_truncated = Cim_obs.Metrics.counter "solver.bb.truncated_solves"
let m_warm_hits = Cim_obs.Metrics.counter "solver.bb.warm_hits"
let m_rc_tightened = Cim_obs.Metrics.counter "solver.bb.rc_tightened"
let m_lp_limits = Cim_obs.Metrics.counter "solver.bb.lp_iteration_limits"
let m_bound_skips = Cim_obs.Metrics.counter "solver.bb.bound_skips"

(* Most-fractional branching: pick the integer variable whose relaxation
   value is farthest from an integer. *)
let most_fractional ~eps kinds (values : float array) =
  let best = ref (-1) and best_frac = ref eps in
  Array.iteri
    (fun j k ->
      match k with
      | Continuous -> ()
      | Integer ->
        let v = values.(j) in
        let frac = Float.abs (v -. Float.round v) in
        if frac > !best_frac then begin
          best := j;
          best_frac := frac
        end)
    kinds;
  if !best < 0 then None else Some !best

let round_integral ~eps kinds (sol : Lp.solution) =
  let values =
    Array.mapi
      (fun j v ->
        match kinds.(j) with
        | Continuous -> v
        | Integer ->
          let r = Float.round v in
          if Float.abs (v -. r) <= eps then r else v)
      sol.Lp.values
  in
  { sol with Lp.values = values }

(* Root heuristic: pin every integer variable to a rounding of its
   relaxation value and re-solve the LP over the continuous remainder. A
   feasible result seeds the incumbent so pruning bites immediately. Three
   rounding policies are tried because different constraint systems tolerate
   different directions (e.g. capacity rows favour floor, covering rows
   favour ceil). Pinning only moves bounds, so the root basis stays
   dual-feasible and each attempt warm-starts from it. *)
let rounding_incumbent ~relax ~kinds ?warm (p : Lp.problem)
    (root : Lp.solution) =
  let pinned round =
    let lower = Array.copy p.Lp.lower and upper = Array.copy p.Lp.upper in
    Array.iteri
      (fun j k ->
        if k = Integer then begin
          let v = round root.Lp.values.(j) in
          let v = Float.max p.Lp.lower.(j) (Float.min p.Lp.upper.(j) v) in
          lower.(j) <- v;
          upper.(j) <- v
        end)
      kinds;
    (lower, upper)
  in
  (* per component round = floor or ceil, so policies often pin the same
     box (always, when the relaxation is near-integral): dedupe before
     paying for an LP solve per policy *)
  let boxes =
    List.fold_left
      (fun acc round ->
        let (lower, _) as box = pinned round in
        if
          List.exists
            (fun (l, _) -> Array.for_all2 Float.equal l lower)
            acc
        then acc
        else box :: acc)
      []
      [ Float.round; Float.floor; Float.ceil ]
  in
  List.fold_left
    (fun best box ->
      match fst (relax ?warm box) with
      | Lp.Infeasible | Lp.Unbounded | Lp.Iteration_limit -> best
      | Lp.Optimal s -> begin
        match best with
        | Some (b : Lp.solution) when b.Lp.objective >= s.Lp.objective -> best
        | Some _ | None -> Some s
      end)
    None (List.rev boxes)

(* Reduced-cost bound tightening at the root. At the root optimum z_r with
   reduced cost d_j on a nonbasic structural variable, moving x_j a distance
   t off its bound costs |d_j| * t of objective, so any solution better than
   the incumbent z_i keeps x_j within (z_r - z_i) / |d_j| of that bound.
   Tightened boxes shrink every subtree below the root at once. Only
   solutions *strictly better* than the incumbent survive the tightening,
   which is all branch-and-bound needs: anything else is gap-pruned. *)
let rc_tighten ~kinds ~basis ~reduced ~root_obj ~incumbent_obj lower upper =
  let slack = root_obj -. incumbent_obj in
  if slack < 0. then ()
  else
    Array.iteri
      (fun j d ->
        let integral = kinds.(j) = Integer in
        if Float.abs d > 1e-7 then
          match Lp.basis_status basis j with
          | Lp.Basic -> ()
          | Lp.Nonbasic_lower when d < 0. ->
            let span = slack /. -.d in
            let span = if integral then Float.floor (span +. 1e-9) else span in
            let ub' = lower.(j) +. span in
            if ub' < upper.(j) -. 1e-12 then begin
              upper.(j) <- ub';
              Cim_obs.Metrics.incr m_rc_tightened
            end
          | Lp.Nonbasic_upper when d > 0. ->
            let span = slack /. d in
            let span = if integral then Float.floor (span +. 1e-9) else span in
            let lb' = upper.(j) -. span in
            if lb' > lower.(j) +. 1e-12 then begin
              lower.(j) <- lb';
              Cim_obs.Metrics.incr m_rc_tightened
            end
          | Lp.Nonbasic_lower | Lp.Nonbasic_upper -> ())
      reduced

let solve ?(eps = 1e-6) ?(max_nodes = 100_000) ?(gap = 1e-6)
    ?(backend = Revised) (p : Lp.problem) ~kinds =
  if Array.length kinds <> p.Lp.n_vars then
    raise (Lp.Ill_formed "Milp.solve: kinds length mismatch");
  (* validate once at the root; every node re-solve below skips the scan *)
  Lp.check p;
  (* the rows never change down the tree — convert to computational form
     once and re-solve under each node's bound box *)
  let prep = match backend with Revised -> Some (Lp.prepare p) | Dense -> None in
  let relax ?warm (lower, upper) =
    match prep with
    | Some q -> Lp.solve_prepared ?warm q ~lower ~upper
    | None -> (Lp_dense.solve { p with Lp.lower; upper }, None)
  in
  let incumbent = ref None in
  let better (s : Lp.solution) =
    match !incumbent with
    | None -> true
    | Some (i : Lp.solution) -> s.Lp.objective > i.Lp.objective +. 1e-12
  in
  let nodes = ref 0 in
  let truncated = ref false in
  let root_unbounded = ref false in
  let root_infeasible = ref false in
  (* DFS stack of (lower, upper, parent basis, parent LP bound).
     Depth-first keeps memory flat and finds integral incumbents fast for
     these models; a branch only tightens one bound of the parent box, so
     the parent's optimal basis is dual-feasible for the child and seeds
     its warm start. The parent's LP objective bounds every solution in
     the child's subtree, so a node whose recorded bound has fallen inside
     the incumbent's gap by pop time is discarded without paying for its
     LP solve at all. *)
  let threshold () =
    match !incumbent with
    | Some (i : Lp.solution) ->
      i.Lp.objective +. 1e-9 +. (gap *. Float.abs i.Lp.objective)
    | None -> neg_infinity
  in
  let stack = Stack.create () in
  Stack.push (p.Lp.lower, p.Lp.upper, None, infinity) stack;
  while (not (Stack.is_empty stack)) && not !truncated do
    let lower, upper, warm, parent_bound = Stack.pop stack in
    incr nodes;
    if !nodes > max_nodes then truncated := true
    else begin
      Cim_obs.Metrics.incr m_nodes;
      if parent_bound <= threshold () then begin
        Cim_obs.Metrics.incr m_pruned;
        Cim_obs.Metrics.incr m_bound_skips
      end
      else begin
      if Option.is_some warm then Cim_obs.Metrics.incr m_warm_hits;
      match relax ?warm (lower, upper) with
      | Lp.Iteration_limit, _ ->
        (* degrade, don't crash: truncate to the incumbent so the caller's
           ladder (Alloc -> Degrade) falls back to the greedy allocator *)
        Cim_obs.Metrics.incr m_lp_limits;
        truncated := true
      | Lp.Infeasible, _ ->
        Cim_obs.Metrics.incr m_infeasible;
        if !nodes = 1 then root_infeasible := true
      | Lp.Unbounded, _ ->
        (* Unbounded relaxation at the root means the MILP is unbounded or
           needs bounds we cannot infer; surface it. *)
        if !nodes = 1 then root_unbounded := true
      | Lp.Optimal sol, snap ->
        let frac = most_fractional ~eps kinds sol.Lp.values in
        (* relative optimality gap: bound the wasted search for negligible
           improvements (re-checked below at the root, where the rounding
           heuristic may have just seeded the incumbent) *)
        if sol.Lp.objective <= threshold () then Cim_obs.Metrics.incr m_pruned
        else begin
          match frac with
          | None ->
            let sol = round_integral ~eps kinds sol in
            if better sol then begin
              Cim_obs.Metrics.incr m_incumbents;
              incumbent := Some sol
            end
          | Some j ->
            (* something will consume the basis from here on (rounding
               warm starts, root tightening, child warm starts): force
               the deferred snapshot before any re-solve overwrites the
               solver scratch *)
            let basis = Option.map (fun f -> f ()) snap in
            let lower, upper =
              if !nodes > 1 then (lower, upper)
              else begin
                (* seed the incumbent from the root relaxation by rounding *)
                (match rounding_incumbent ~relax ~kinds ?warm:basis p sol with
                | Some s when better s ->
                  Cim_obs.Metrics.incr m_incumbents;
                  incumbent := Some (round_integral ~eps kinds s)
                | Some _ | None -> ());
                (* shrink the root box with reduced costs before branching *)
                match (prep, basis, !incumbent) with
                | Some q, Some b, Some (i : Lp.solution) ->
                  let reduced = Lp.reduced_costs q b in
                  let lower = Array.copy lower and upper = Array.copy upper in
                  rc_tighten ~kinds ~basis:b ~reduced
                    ~root_obj:sol.Lp.objective ~incumbent_obj:i.Lp.objective
                    lower upper;
                  (lower, upper)
                | _ -> (lower, upper)
              end
            in
            if sol.Lp.objective <= threshold () then
              Cim_obs.Metrics.incr m_pruned
            else begin
            let v = sol.Lp.values.(j) in
            let floor_v = Float.floor v in
            let child_warm = basis in
            (* Branches whose tightened bound crosses the opposite bound are
               empty (the relaxation value sat on a bound within tolerance)
               and are skipped rather than pushed. Explore the side nearer
               the relaxation value first. *)
            let lo_branch =
              let ub' = Float.min upper.(j) floor_v in
              if ub' < lower.(j) then None
              else begin
                let upper' = Array.copy upper in
                upper'.(j) <- ub';
                Some (Array.copy lower, upper', child_warm, sol.Lp.objective)
              end
            in
            let hi_branch =
              let lb' = Float.max lower.(j) (floor_v +. 1.) in
              if lb' > upper.(j) then None
              else begin
                let lower' = Array.copy lower in
                lower'.(j) <- lb';
                Some (lower', Array.copy upper, child_warm, sol.Lp.objective)
              end
            in
            let push = Option.iter (fun b -> Stack.push b stack) in
            if v -. floor_v > 0.5 then begin
              push lo_branch;
              push hi_branch
            end
            else begin
              push hi_branch;
              push lo_branch
            end
            end
        end
      end
    end
  done;
  if !root_unbounded then Unbounded
  else if !truncated then begin
    Cim_obs.Metrics.incr m_truncated;
    Node_limit !incumbent
  end
  else if !root_infeasible then Infeasible
  else
    match !incumbent with None -> Infeasible | Some s -> Optimal s
