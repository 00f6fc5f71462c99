module Chip = Cim_arch.Chip
module Cost = Cim_arch.Cost

type event = {
  uid : int;
  label : string;
  tile : int;
  t_start : float;
  t_finish : float;
}

let simulate chip (ops : Opinfo.t array) (plan : Plan.seg_plan)
    ?(tiles = 8) ?(include_setup = false) () =
  if tiles <= 0 then invalid_arg "Tile_sim.simulate: tiles must be positive";
  let allocs = Array.of_list plan.Plan.allocs in
  let n = Array.length allocs in
  let index_of_uid = Hashtbl.create 16 in
  Array.iteri (fun i (a : Plan.op_alloc) -> Hashtbl.replace index_of_uid a.Plan.uid i) allocs;
  let per_tile =
    Array.map
      (fun (a : Plan.op_alloc) ->
        Alloc.op_latency chip ops.(a.Plan.uid) a /. float_of_int tiles)
      allocs
  in
  let setup =
    Array.map
      (fun (a : Plan.op_alloc) ->
        if include_setup then
          Cost.weight_rewrite_latency chip ~max_com:a.Plan.com
        else 0.)
      allocs
  in
  (* finish.(i) holds the completion time of operator i's latest tile *)
  let finish = Array.make n 0. in
  let events = ref [] in
  let makespan = ref 0. in
  for tile = 0 to tiles - 1 do
    for i = 0 to n - 1 do
      let uid = allocs.(i).Plan.uid in
      let dep_ready =
        List.fold_left
          (fun acc d ->
            match Hashtbl.find_opt index_of_uid d with
            | Some j when j < i -> Float.max acc finish.(j)
            | Some _ | None -> acc)
          0. ops.(uid).Opinfo.deps
      in
      let self_ready = if tile = 0 then setup.(i) else finish.(i) in
      let t_start = Float.max dep_ready self_ready in
      let t_finish = t_start +. per_tile.(i) in
      finish.(i) <- t_finish;
      makespan := Float.max !makespan t_finish;
      events :=
        { uid; label = ops.(uid).Opinfo.label; tile; t_start; t_finish } :: !events
    done
  done;
  (!makespan, List.rev !events)

let gantt ?(width = 64) events =
  match events with
  | [] -> "(empty)\n"
  | _ ->
    let horizon =
      List.fold_left (fun acc e -> Float.max acc e.t_finish) 0. events
    in
    let rows = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun e ->
        if not (Hashtbl.mem rows e.uid) then begin
          Hashtbl.replace rows e.uid (Bytes.make width '.');
          order := e.uid :: !order
        end;
        let row = Hashtbl.find rows e.uid in
        let pos t = min (width - 1) (int_of_float (t /. horizon *. float_of_int width)) in
        for p = pos e.t_start to pos (e.t_finish -. 1e-12) do
          Bytes.set row p '#'
        done)
      events;
    let label_of uid =
      match List.find_opt (fun e -> e.uid = uid) events with
      | Some e -> e.label
      | None -> string_of_int uid
    in
    let buf = Buffer.create 256 in
    List.iter
      (fun uid ->
        Buffer.add_string buf
          (Printf.sprintf "%-28s |%s|\n"
             (let l = label_of uid in
              if String.length l > 28 then String.sub l 0 28 else l)
             (Bytes.to_string (Hashtbl.find rows uid))))
      (List.rev !order);
    Buffer.add_string buf (Printf.sprintf "horizon: %.0f cycles\n" horizon);
    Buffer.contents buf
