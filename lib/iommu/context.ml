module Domain = struct
  type t = { id : int; table : Rio_pagetable.Arena.t }

  let make ~id ~table = { id; table }
end

module Int_table = Rio_sim.Int_table

type t = { entries : Domain.t Int_table.t }

let create () = { entries = Int_table.create 16 }
let attach t bdf domain = Int_table.replace t.entries (Bdf.to_rid bdf) domain
let detach t bdf = Int_table.remove t.entries (Bdf.to_rid bdf)
let lookup t ~rid = Int_table.find_opt t.entries rid
let lookup_exn t ~rid = Int_table.find t.entries rid
let attached t = Int_table.length t.entries
