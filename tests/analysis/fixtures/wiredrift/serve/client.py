"""Drifted-endpoint fixture: a client using a route the server lacks."""


class Client:
    def submit(self):
        return self._request("POST", "/submit")

    def result(self, job_id):
        return self._request("GET", f"/resultz/{job_id}")  # SEEDED: route-drift
